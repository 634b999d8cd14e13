package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
)

// refLink is the two-event transmitter Link replaced, kept as the reference
// it must match: transmit-done is scheduled at every transmission start, and
// the arrival is scheduled when transmit-done runs. onSchedule observes
// every deadline it schedules.
type refLink struct {
	eng        *sim.Engine
	bps        float64
	prop       sim.Duration
	deliver    func(Packet)
	onDrop     func(Packet)
	onSchedule func(sim.Time)

	queues   [numClasses]classQueue
	maxQueue int
	busy     bool
	down     bool
	stats    LinkStats

	cur    Packet
	flight classQueue
	txEnd  sim.Time // when cur's transmission ends, while busy
}

func newRefLink(eng *sim.Engine, capacityMbps float64, prop sim.Duration, maxQueue int, deliver, onDrop func(Packet), onSchedule func(sim.Time)) *refLink {
	return &refLink{eng: eng, bps: capacityMbps * 1e6, prop: prop, maxQueue: maxQueue,
		deliver: deliver, onDrop: onDrop, onSchedule: onSchedule}
}

func (l *refLink) schedule(d sim.Duration, fn func()) {
	l.onSchedule(l.eng.Now().Add(d))
	l.eng.Schedule(d, fn)
}

func (l *refLink) txDone() {
	if !l.down {
		l.flight.push(l.cur)
		l.schedule(l.prop, func() {
			p := l.flight.pop()
			l.stats.Delivered++
			l.deliver(p)
		})
	} else {
		l.stats.DroppedDown++
		l.onDrop(l.cur)
		l.cur = Packet{}
	}
	l.startNext()
}

func (l *refLink) SetDown(down bool) {
	l.down = down
	if down {
		for c := range l.queues {
			cq := &l.queues[c]
			l.stats.DroppedDown += uint64(cq.len())
			for i := cq.head; i < len(cq.q); i++ {
				l.onDrop(cq.q[i])
			}
			cq.clear()
		}
	}
}

func (l *refLink) Each(fn func(Packet)) {
	for c := range l.queues {
		cq := &l.queues[c]
		for i := cq.head; i < len(cq.q); i++ {
			fn(cq.q[i])
		}
	}
	if l.busy {
		fn(l.cur)
	}
	for i := l.flight.head; i < len(l.flight.q); i++ {
		fn(l.flight.q[i])
	}
}

func (l *refLink) Enqueue(p Packet) {
	if l.down {
		l.stats.DroppedDown++
		l.onDrop(p)
		return
	}
	if l.maxQueue > 0 && l.queues[p.Class].len() >= l.maxQueue {
		l.stats.DroppedQueue++
		l.onDrop(p)
		return
	}
	l.stats.Enqueued++
	l.queues[p.Class].push(p)
	if !l.busy {
		l.startNext()
	}
}

func (l *refLink) startNext() {
	found := false
	for c := Class(0); c < numClasses; c++ {
		if l.queues[c].len() > 0 {
			l.cur = l.queues[c].pop()
			found = true
			break
		}
	}
	if !found {
		l.busy = false
		return
	}
	l.busy = true
	txTime := sim.Duration(float64(l.cur.Size*8) / l.bps * float64(time.Second))
	l.stats.BusyTime += txTime
	l.txEnd = l.eng.Now().Add(txTime)
	l.schedule(txTime, l.txDone)
}

// arrival is one delivered packet: when, and its id.
type arrival struct {
	at sim.Time
	id int
}

// linkSide is what one transmitter has done so far.
type linkSide struct {
	delivered []arrival
	dropped   []int
}

// linkScript drives a Link and a refLink on one engine from one byte
// script and compares them at every instant an event of either is due, and
// after every enqueue the driver makes between RunUntil calls.
type linkScript struct {
	t          testing.TB
	eng        *sim.Engine
	link       *Link
	ref        *refLink
	got, want  linkSide
	instants   []sim.Time // sorted, due instants not yet run to
	direct     map[sim.Time][]Packet
	nextID     int
	capacity   float64
	scriptTime sim.Time
}

// scriptSizes are packet sizes in bytes; at 1 Mbps they take 8 µs, 496 µs,
// 1, 2, 4 and 10 ms, so transmissions end on the script's 500 µs grid and
// off it.
var scriptSizes = []int{1, 62, 125, 250, 500, 1250}

func newLinkScript(t testing.TB, prop sim.Duration, maxQueue int) *linkScript {
	s := &linkScript{t: t, eng: sim.New(1), capacity: 1, direct: map[sim.Time][]Packet{}}
	s.link = NewLink(s.eng, s.capacity, prop, maxQueue, func(p Packet) {
		s.got.delivered = append(s.got.delivered, arrival{s.eng.Now(), p.Payload.(int)})
	})
	s.link.SetDropHandler(func(p Packet) { s.got.dropped = append(s.got.dropped, p.Payload.(int)) })
	s.ref = newRefLink(s.eng, s.capacity, prop, maxQueue, func(p Packet) {
		s.want.delivered = append(s.want.delivered, arrival{s.eng.Now(), p.Payload.(int)})
	}, func(p Packet) { s.want.dropped = append(s.want.dropped, p.Payload.(int)) }, s.due)
	return s
}

// due records an instant the driver must stop at.
func (s *linkScript) due(at sim.Time) {
	i := sort.Search(len(s.instants), func(i int) bool { return s.instants[i] >= at })
	if i < len(s.instants) && s.instants[i] == at {
		return
	}
	s.instants = append(s.instants, 0)
	copy(s.instants[i+1:], s.instants[i:])
	s.instants[i] = at
}

// at schedules fn at absolute time t and records the instant.
func (s *linkScript) at(t sim.Time, fn func()) {
	s.due(t)
	s.eng.At(t, fn)
}

func (s *linkScript) packet(class, size byte) Packet {
	s.nextID++
	return Packet{Class: Class(class % byte(numClasses)), Size: scriptSizes[int(size)%len(scriptSizes)], Payload: s.nextID}
}

func (s *linkScript) txTime(p Packet) sim.Duration {
	return sim.Duration(float64(p.Size*8) / (s.capacity * 1e6) * float64(time.Second))
}

// enqueue hands p to both transmitters, the link first for odd ids, so each
// side's reservations are keyed both before and after the other's events.
func (s *linkScript) enqueue(p Packet) {
	if p.Payload.(int)%2 == 1 {
		s.link.Enqueue(p)
		s.ref.Enqueue(p)
	} else {
		s.ref.Enqueue(p)
		s.link.Enqueue(p)
	}
}

func (s *linkScript) setDown(down bool) {
	s.link.SetDown(down)
	s.ref.SetDown(down)
}

// load reads the script, three bytes an op, scheduling every op as an event
// at its script time before the run starts (so each is keyed ahead of
// anything the links schedule at the same instant):
//
//	0 enqueue (class a, size b)
//	1 advance the script clock by a%16 × 500 µs
//	2 flap: down now, up a%24 × 125 µs later (inside one 10 ms serialization or not)
//	3 down
//	4 up
//	5 at transmit end: when the event runs, enqueue (a, b) at the current
//	  transmission's end, keyed after its reserved key; now if idle
//	6 enqueue (a, b) now, having first scheduled an enqueue (b, a) at
//	  now + its transmission time, keyed before its reserved key
//	7 burst of 1 + a%8 packets of class b, sizes varying (overflows maxQueue)
//	8 enqueue (a, b) from the driver between RunUntil calls, at the script time
func (s *linkScript) load(script []byte) {
	for i := 0; i+2 < len(script); i += 3 {
		a, b := script[i+1], script[i+2]
		now := s.scriptTime
		switch script[i] % 9 {
		case 0:
			p := s.packet(a, b)
			s.at(now, func() { s.enqueue(p) })
		case 1:
			s.scriptTime = now.Add(sim.Duration(a%16) * 500 * time.Microsecond)
		case 2:
			s.at(now, func() { s.setDown(true) })
			s.at(now.Add(sim.Duration(a%24)*125*time.Microsecond), func() { s.setDown(false) })
		case 3:
			s.at(now, func() { s.setDown(true) })
		case 4:
			s.at(now, func() { s.setDown(false) })
		case 5:
			p := s.packet(a, b)
			s.at(now, func() {
				if !s.ref.busy {
					s.enqueue(p)
					return
				}
				s.at(s.ref.txEnd, func() { s.enqueue(p) })
			})
		case 6:
			p, q := s.packet(a, b), s.packet(b, a)
			s.at(now, func() {
				s.at(s.eng.Now().Add(s.txTime(p)), func() { s.enqueue(q) })
				s.enqueue(p)
			})
		case 7:
			for k := 0; k <= int(a%8); k++ {
				p := s.packet(b, a+byte(k))
				s.at(now, func() { s.enqueue(p) })
			}
		case 8:
			s.due(now)
			s.direct[now] = append(s.direct[now], s.packet(a, b))
		}
	}
}

// run drives the engine instant by instant and compares after each.
func (s *linkScript) run() {
	s.t.Helper()
	for len(s.instants) > 0 {
		at := s.instants[0]
		s.instants = s.instants[1:]
		s.eng.RunUntil(at)
		s.compare(fmt.Sprintf("after RunUntil(%v)", at))
		if ps := s.direct[at]; len(ps) > 0 {
			for _, p := range ps {
				s.enqueue(p)
				s.compare(fmt.Sprintf("after a direct enqueue of %d at %v", p.Payload, at))
			}
			delete(s.direct, at)
		}
	}
	if n := s.eng.Pending(); n != 0 {
		s.t.Fatalf("%d events left when neither link has anything due", n)
	}
}

func (s *linkScript) census(each func(func(Packet))) []int {
	var ids []int
	each(func(p Packet) { ids = append(ids, p.Payload.(int)) })
	return ids
}

func (s *linkScript) compare(where string) {
	s.t.Helper()
	if !reflect.DeepEqual(s.got, s.want) {
		s.t.Fatalf("%s: link\n delivered %v\n dropped %v\nreference\n delivered %v\n dropped %v",
			where, s.got.delivered, s.got.dropped, s.want.delivered, s.want.dropped)
	}
	if g, w := s.link.Stats(), s.ref.stats; g != w {
		s.t.Fatalf("%s: stats %+v, reference %+v", where, g, w)
	}
	if g, w := s.census(s.link.Each), s.census(s.ref.Each); !reflect.DeepEqual(g, w) {
		s.t.Fatalf("%s: Each visits %v, reference %v", where, g, w)
	}
}

// runLinkScript plays one script; its first byte picks the propagation
// delay and the queue bound.
func runLinkScript(t testing.TB, script []byte) *linkScript {
	t.Helper()
	var hdr byte
	if len(script) > 0 {
		hdr, script = script[0], script[1:]
	}
	props := []sim.Duration{0, 500 * time.Microsecond, time.Millisecond, 3 * time.Millisecond}
	s := newLinkScript(t, props[hdr%4], []int{0, 1, 3}[int(hdr/4)%3])
	s.load(script)
	s.run()
	return s
}

// TestLinkMatchesReference holds the one-event Link to the two-event
// reference on hand-written scripts for each case the reserved key must
// get right, then on seeded random scripts.
func TestLinkMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		script []byte
	}{
		{"back-to-back", []byte{1, 0, 1, 5, 0, 1, 5, 0, 2, 2}},
		{"priority", []byte{0, 0, 1, 5, 0, 2, 5, 0, 0, 1}},
		{"queue-overflow", []byte{4, 7, 7, 1, 7, 7, 5, 0, 0, 2}},
		{"flap-inside-one-serialization", []byte{1, 0, 1, 5, 2, 4, 0, 1, 2, 0, 2, 8, 0}},
		{"down-across-transmit-end", []byte{1, 0, 1, 5, 3, 0, 0, 1, 15, 0, 1, 15, 0, 4, 0, 0, 0, 1, 2}},
		{"flap-up-at-transmit-end", []byte{0, 0, 1, 2, 2, 8, 0}},
		{"enqueue-at-end-keyed-after", []byte{1, 0, 1, 5, 5, 1, 2, 1, 4, 0, 5, 0, 5}},
		{"enqueue-at-end-keyed-before", []byte{0, 6, 1, 5, 6, 1, 2, 1, 9, 0, 6, 0, 3}},
		{"direct-at-transmit-end", []byte{1, 0, 1, 2, 1, 2, 0, 8, 1, 1}},
		{"zero-prop-tie", []byte{0, 0, 1, 0, 5, 1, 3, 6, 1, 1, 1, 2, 0, 8, 2, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if s := runLinkScript(t, c.script); len(s.got.delivered)+len(s.got.dropped) == 0 {
				t.Fatal("script moved no packet")
			}
		})
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 1+3*(10+rng.Intn(60)))
		rng.Read(script)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runLinkScript(t, script) })
	}
}

// FuzzLinkMatchesReference is TestLinkMatchesReference with the script
// read from the input.
func FuzzLinkMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 5, 0, 1, 5, 0, 2, 2})
	f.Add([]byte{1, 0, 1, 5, 2, 4, 0, 1, 2, 0, 2, 8, 0})
	f.Add([]byte{0, 6, 1, 5, 6, 1, 2, 1, 9, 0, 6, 0, 3, 5, 0, 5, 8, 1, 1})
	f.Add([]byte{4, 7, 7, 1, 7, 7, 5, 3, 0, 0, 1, 3, 4, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		runLinkScript(t, script)
	})
}
