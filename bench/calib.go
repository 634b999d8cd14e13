package main

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"time"
)

// The reference program. On the box the driver runs this benchmark on, the
// neighbours that share a core slow the program by anything up to a factor of
// two, for seconds to minutes at a time: often for a whole run, so no
// statistic of the run's own operation times can read the undisturbed
// machine. What can be had is a second clock that the same neighbours slow in
// the same way: a small fixed program of the kind this repository is made of
// (Dijkstra with container/heap over a random graph held in slices), run
// every refEvery of the measured loop. A segment's operation time is divided
// by how much slower than refNominal the reference ran in that segment.
// README.md, "Estimator", has the recordings that led here, the kernels that
// were tried and dropped, and what the division does and does not remove.
type reference struct {
	adj  [][]refEdge
	dist []int64
	q    refQueue
	src  int32
}

type refEdge struct{ to, w int32 }

type refItem struct {
	node int32
	dist int64
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

// Push and Pop are never called: read grows and shrinks the slice itself and
// restores the order with heap.Fix, because a value passed through
// heap.Push's interface{} is a heap allocation, and the reference must not
// add to the allocation counts of the loop it runs inside.
func (q *refQueue) Push(interface{}) { panic("unused") }
func (q *refQueue) Pop() interface{} { panic("unused") }

func (q *refQueue) push(it refItem) {
	*q = append(*q, it)
	heap.Fix(q, len(*q)-1)
}

func (q *refQueue) pop() refItem {
	old := *q
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	it := old[n]
	*q = old[:n]
	if n > 0 {
		heap.Fix(q, 0)
	}
	return it
}

const (
	refNodes  = 8192
	refDegree = 4
	// refNominal is what one reading costs on the quiet recording box. It
	// only fixes the scale: on a faster or slower machine every calibrated
	// time is off by the same factor, and two commits still compare.
	refNominal = 2.4e6 // ns
	refEvery   = 50 * time.Millisecond
)

// newReference builds the graph from a fixed seed, so every process reads the
// same program: a ring, which makes every node reachable from every source,
// plus random chords.
func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{adj: make([][]refEdge, refNodes), dist: make([]int64, refNodes)}
	for i := range r.adj {
		r.adj[i] = make([]refEdge, refDegree)
		for k := range r.adj[i] {
			to := int32(rng.Intn(refNodes))
			if k == 0 {
				to = int32((i + 1) % refNodes)
			}
			r.adj[i][k] = refEdge{to, int32(1 + rng.Intn(100))}
		}
	}
	return r
}

// read runs one single-source shortest-path search, from a source that moves
// on with every reading, and returns the nanoseconds it took.
func (r *reference) read() float64 {
	t0 := time.Now()
	for i := range r.dist {
		r.dist[i] = math.MaxInt64
	}
	r.src = (r.src + 1) % refNodes
	r.dist[r.src] = 0
	r.q = append(r.q[:0], refItem{r.src, 0})
	for len(r.q) > 0 {
		it := r.q.pop()
		if it.dist > r.dist[it.node] {
			continue
		}
		for _, e := range r.adj[it.node] {
			if d := it.dist + int64(e.w); d < r.dist[e.to] {
				r.dist[e.to] = d
				r.q.push(refItem{e.to, d})
			}
		}
	}
	return float64(time.Since(t0))
}

// theRef is built before any pass measures its heap, so heap_mb never
// counts it.
var theRef = newReference()

// calib collects the reference readings of one measured loop. The loop asks
// due at a point where no operation is being timed, and calls read there when
// a reading is.
type calib struct {
	readings []sample // dur in nanoseconds per reading
	next     int64
}

func (c *calib) due(now int64) bool { return now >= c.next }

func (c *calib) read(now int64) {
	c.readings = append(c.readings, sample{at: now, dur: int64(theRef.read())})
	c.next = now + int64(refEvery)
}

// calibratedQuantile is the quantile of the calibrated segment values a
// metric reports. The division takes out most of a disturbance but not all of
// it (this repository's operations lose about a quarter more than the
// reference does), so within a run what is left mostly adds, and the lower
// quartile of the segments is steadier than their median.
const calibratedQuantile = 0.25

// calibrated is the estimator for host-CPU times: the p-quantile of the
// operations in each segment of length seg, divided by that segment's
// slowdown (its median reference reading over refNominal), and across the
// segments the lower quartile. A segment counts only when it holds the
// samples the percentile needs (see beyond) and a reference reading. It
// returns the value and the number of segments behind it. When no segment
// qualifies (a smoke window) the pooled statistic is divided by the pooled
// slowdown, or by nothing when there was no reading at all, and the count
// is 0.
func calibrated(s, ref []sample, window, seg time.Duration, p float64) (float64, int) {
	need := int(math.Ceil(beyond / (1 - p)))
	nseg := int(window / seg)
	ops, refs := bucket(s, int64(seg), nseg), bucket(ref, int64(seg), nseg)
	var vals []float64
	for i := range ops {
		if len(ops[i]) < need || len(refs[i]) == 0 {
			continue
		}
		vals = append(vals, percentile(ops[i], p)/slowdown(refs[i]))
	}
	if len(vals) == 0 {
		v := percentile(sortedCopy(durations(s)), p)
		if len(ref) > 0 {
			v /= slowdown(sortedCopy(durations(ref)))
		}
		return v, 0
	}
	sort.Float64s(vals)
	return percentile(vals, calibratedQuantile), len(vals)
}

// slowdownAt is by how much an operation is taken to have been slowed while
// a reading of the reference cost ns.
func slowdownAt(ns float64) float64 { return ns / refNominal }

// slowdown is slowdownAt the median of a segment's sorted readings.
func slowdown(sorted []float64) float64 { return slowdownAt(percentile(sorted, 0.5)) }
