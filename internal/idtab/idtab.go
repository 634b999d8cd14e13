// Package idtab is a table from integer ids to pointers for ids that are
// issued in increasing order and never reused — channel and connection ids.
// The id indexes a fixed-size page directly (pages[id>>pageBits][id&mask]:
// two dependent loads, no hash), so memory is one page per pageSize ids in
// use at best and one page per live id at worst, plus a directory word per
// pageSize ids ever issued.
//
// Like a map, a Table may be read (Get, Each, Len) by any number of
// goroutines while none writes it (Set, Delete).
package idtab

// A page is 256 slots (2 KB): what one long-lived id among dead ones can pin,
// against a directory that grows by a word per page of ids issued.
const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page[T any] struct {
	live int // non-nil slots
	slot [pageSize]*T
}

// Table maps ids of type K to *T. The zero value is an empty table.
type Table[K ~int32 | ~int64, T any] struct {
	pages []*page[T] // by id>>pageBits; nil where no id is live
	spare *page[T]   // one emptied page kept for the next page needed
	n     int
}

// Len returns the number of ids set.
func (t *Table[K, T]) Len() int { return t.n }

// Get returns the value set for id, or nil, for any id at all — negative,
// zero, far past the last one issued — without allocating.
func (t *Table[K, T]) Get(id K) *T {
	hi := uint64(id) >> pageBits // a negative id becomes a page past any directory
	if hi >= uint64(len(t.pages)) {
		return nil
	}
	if p := t.pages[hi]; p != nil {
		return p.slot[uint64(id)&pageMask]
	}
	return nil
}

// Set stores v (non-nil) under id (non-negative), replacing any previous
// value. The directory grows to cover id, so Set is for ids this program
// issued, never for one read off the wire.
func (t *Table[K, T]) Set(id K, v *T) {
	if id < 0 || v == nil {
		panic("idtab: Set of a negative id or a nil value")
	}
	hi := int(uint64(id) >> pageBits)
	if hi >= len(t.pages) {
		// The top page moves up; the old one, kept while empty because the
		// next id would land on it, no longer has that excuse.
		if top := len(t.pages) - 1; top >= 0 && t.pages[top].live == 0 {
			t.spare, t.pages[top] = t.pages[top], nil
		}
		for hi >= len(t.pages) {
			t.pages = append(t.pages, nil)
		}
	}
	p := t.pages[hi]
	if p == nil {
		if p = t.spare; p != nil {
			t.spare = nil
		} else {
			p = new(page[T])
		}
		t.pages[hi] = p
	}
	s := &p.slot[uint64(id)&pageMask]
	if *s == nil {
		p.live++
		t.n++
	}
	*s = v
}

// Delete removes id; deleting an id that is not set is a no-op. A page whose
// last id goes is dropped (kept as the spare if there is none), except the
// top page: ids only grow, so the next Set lands there, and freeing it would
// allocate a page per Set under set-then-delete churn.
func (t *Table[K, T]) Delete(id K) {
	hi := uint64(id) >> pageBits
	if hi >= uint64(len(t.pages)) {
		return
	}
	p, lo := t.pages[hi], uint64(id)&pageMask
	if p == nil || p.slot[lo] == nil {
		return
	}
	p.slot[lo] = nil
	p.live--
	t.n--
	if p.live == 0 && int(hi) != len(t.pages)-1 {
		t.pages[hi] = nil
		if t.spare == nil {
			t.spare = p
		}
	}
}

// Each calls fn for every id set, in ascending id order. fn must not Set or
// Delete.
func (t *Table[K, T]) Each(fn func(id K, v *T)) {
	for hi, p := range t.pages {
		if p == nil || p.live == 0 {
			continue
		}
		for lo, v := range &p.slot {
			if v != nil {
				fn(K(hi<<pageBits|lo), v)
			}
		}
	}
}
