package idtab

import (
	"math"
	"math/rand"
	"testing"
)

type rec struct{ id int64 }

// livePages counts the pages the table holds: directory entries plus the spare.
func livePages(t *Table[int64, rec]) int {
	n := 0
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	if t.spare != nil {
		n++
	}
	return n
}

// requireSame holds the table against the map model: same length, same value
// under every id the model knows, and an ascending walk over exactly those.
func requireSame(t *testing.T, tab *Table[int64, rec], model map[int64]*rec) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(model))
	}
	for id, v := range model {
		if got := tab.Get(id); got != v {
			t.Fatalf("Get(%d) = %p, model %p", id, got, v)
		}
	}
	prev, seen := int64(-1), 0
	tab.Each(func(id int64, v *rec) {
		if id <= prev {
			t.Fatalf("Each out of order: %d after %d", id, prev)
		}
		if model[id] != v {
			t.Fatalf("Each(%d) = %p, model %p", id, v, model[id])
		}
		prev = id
		seen++
	})
	if seen != len(model) {
		t.Fatalf("Each visited %d ids, model has %d", seen, len(model))
	}
}

// TestModelChurn drives the table and a map with the same monotonic-id churn:
// new ids at the top, overwrites, deletes of live and of missing ids.
func TestModelChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[int64, rec]
		model := map[int64]*rec{}
		var live []int64
		next := int64(1)
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0: // set a fresh id
				next += int64(rng.Intn(3)) // failed establishments skip ids
				v := &rec{next}
				tab.Set(next, v)
				model[next] = v
				live = append(live, next)
				next++
			case op < 5: // overwrite
				id := live[rng.Intn(len(live))]
				v := &rec{id}
				tab.Set(id, v)
				model[id] = v
			case op < 9: // delete a live id
				i := rng.Intn(len(live))
				tab.Delete(live[i])
				delete(model, live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // delete an id that is not set
				id := rng.Int63n(next + 2*pageSize)
				if model[id] == nil {
					tab.Delete(id)
				}
			}
			if step%97 == 0 {
				requireSame(t, &tab, model)
			}
		}
		requireSame(t, &tab, model)
		for _, id := range live {
			tab.Delete(id)
		}
		requireSame(t, &tab, map[int64]*rec{})
	}
}

// TestGetAnyID: channel ids arrive off the wire, so Get must answer nil for
// every int64 without growing anything.
func TestGetAnyID(t *testing.T) {
	var tab Table[int64, rec]
	for id := int64(1); id <= 3*pageSize/2; id++ {
		tab.Set(id, &rec{id})
	}
	pastTop := int64(len(tab.pages)) * pageSize
	hostile := []int64{0, -1, math.MinInt64, math.MaxInt64, pastTop, pastTop + 1}
	pages, dir := livePages(&tab), len(tab.pages)
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range hostile {
			if tab.Get(id) != nil {
				t.Fatalf("Get(%d) != nil", id)
			}
			tab.Delete(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get/Delete of unset ids allocate %v per run", allocs)
	}
	if livePages(&tab) != pages || len(tab.pages) != dir {
		t.Fatalf("unset ids changed the table: %d pages / %d directory, was %d / %d", livePages(&tab), len(tab.pages), pages, dir)
	}
	var empty Table[int32, rec]
	if empty.Get(0) != nil || empty.Get(-1) != nil || empty.Get(math.MaxInt32) != nil {
		t.Fatal("Get on the zero table != nil")
	}
}

// TestTopChurnAllocatesNothing is the establish-then-teardown loop: one live
// id at a time, always the newest. Dropping the emptied top page would
// allocate one per Set; dropping it without a spare, one per page crossed.
func TestTopChurnAllocatesNothing(t *testing.T) {
	var tab Table[int64, rec]
	v := &rec{}
	for id := int64(1); id <= 40; id++ { // a resident population below the churn
		tab.Set(id, v)
	}
	next := int64(41)
	cycle := func() {
		for i := 0; i < 3*pageSize; i++ { // crosses pages every run
			tab.Set(next, v)
			tab.Delete(next)
			next++
		}
	}
	tab.pages = append(make([]*page[rec], 0, 1<<16), tab.pages...) // directory growth is not under test
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("top-of-table churn allocates %v per %d Set+Delete", allocs, 3*pageSize)
	}
	if tab.Len() != 40 || livePages(&tab) > 3 {
		t.Fatalf("after churn: %d ids on %d pages", tab.Len(), livePages(&tab))
	}
}

// TestSparseSurvivorsBoundPages: memory follows the live ids, not the ids
// ever issued — at most a page per survivor, plus the top page and the spare.
func TestSparseSurvivorsBoundPages(t *testing.T) {
	const issued, survivors = 1 << 20, 32
	var tab Table[int64, rec]
	v := &rec{}
	keep := map[int64]bool{}
	rng := rand.New(rand.NewSource(7))
	for len(keep) < survivors {
		keep[1+rng.Int63n(issued)] = true
	}
	const window = 1000 // ids live at once, as under establishment churn
	for id := int64(1); id <= issued+window; id++ {
		if id <= issued {
			tab.Set(id, v)
		}
		if old := id - window; old >= 1 && !keep[old] {
			tab.Delete(old)
		}
	}
	if tab.Len() != survivors {
		t.Fatalf("%d ids live, want %d", tab.Len(), survivors)
	}
	if got := livePages(&tab); got > survivors+2 {
		t.Fatalf("%d pages held for %d live ids", got, survivors)
	}
}

func TestSetRejectsBadArguments(t *testing.T) {
	for name, set := range map[string]func(*Table[int64, rec]){
		"negative id": func(tab *Table[int64, rec]) { tab.Set(-1, &rec{}) },
		"nil value":   func(tab *Table[int64, rec]) { tab.Set(1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set with %s did not panic", name)
				}
			}()
			set(&Table[int64, rec]{})
		}()
	}
}

// FuzzTable replays an op stream on the table and on a map. Each byte pair is
// one op; ids advance monotonically, deletes and gets aim anywhere.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 255, 1, 0, 3, 7})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 2, 1, 2, 2, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[int64, rec]
		model := map[int64]*rec{}
		next := int64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int64(ops[i+1])
			switch ops[i] % 4 {
			case 0: // set a new id, skipping up to a page
				next += 1 + arg
				v := &rec{next}
				tab.Set(next, v)
				model[next] = v
			case 1: // overwrite or set below the top
				id := next - arg
				if id < 0 {
					id = 0
				}
				v := &rec{id}
				tab.Set(id, v)
				model[id] = v
			case 2: // delete near the top, live or not
				tab.Delete(next - arg)
				delete(model, next-arg)
			case 3: // delete far below, or a negative id
				tab.Delete(next - arg*pageSize)
				delete(model, next-arg*pageSize)
			}
			if got, want := tab.Get(next-arg), model[next-arg]; got != want {
				t.Fatalf("op %d: Get(%d) = %p, model %p", i/2, next-arg, got, want)
			}
		}
		requireSame(t, &tab, model)
		if live := livePages(&tab); live > len(model)+2 {
			t.Fatalf("%d pages for %d live ids", live, len(model))
		}
	})
}
