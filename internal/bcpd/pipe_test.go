//go:build linux && !race

// Timing tests of the live wire and the waiter behind it. They hold the
// wall-clock stack to sub-millisecond ceilings, which the race detector's
// slowdown would force loose, and the ceilings are what Linux's precise sleep
// delivers; CI's live-smoke job runs them without -race. What is correct or
// not is checked on every attempt; only a timing ceiling, which host noise
// can only push up, gets more than one (testhost.Retry).

package bcpd

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/realtime"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/testhost"
	"github.com/rtcl/bcp/internal/topology"
)

// How many attempts a ceiling gets, and how much CPU other processes may use
// during one (200-300 ms) before a miss is put down to the host: an idle box
// shows 0-10 ms, one CPU-bound neighbour the attempt's whole length.
const (
	timingAttempts = 6
	timingTolerate = 30 * time.Millisecond
)

// pipeBed is a live 3x3 mesh whose only traffic is what the test sends: one
// single-hop connection per given node pair, each with a sink, so a data
// message handed to the transport on that hop is stamped on arrival by the
// destination's actor.
type pipeBed struct {
	rt    *realtime.Runtime
	tr    *PipeTransport
	net   *Network
	prop  time.Duration
	conns []*core.DConnection
	links []topology.LinkID
	seq   []uint64
	sent  [][]sim.Time // per connection: send stamps of the messages expected to arrive

	refusePost atomic.Bool // makes the mailbox refuse, as a full one would
}

func newPipeBed(t *testing.T, depth int, hops ...[2]topology.NodeID) *pipeBed {
	t.Helper()
	g := topology.NewMesh(3, 3, 10)
	mgr := core.NewManager(g, core.DefaultConfig())
	b := &pipeBed{
		seq:  make([]uint64, len(hops)),
		sent: make([][]sim.Time, len(hops)),
	}
	for _, h := range hops {
		c := establish(t, mgr, rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}, path(t, g, h[0], h[1]), nil)
		b.conns = append(b.conns, c)
		b.links = append(b.links, g.LinkBetween(h[0], h[1]))
	}
	b.rt = realtime.New(1)
	b.rt.StartActors(g.NumNodes(), 1024)
	b.tr = NewPipeTransport(func(node int, fn func()) bool {
		return !b.refusePost.Load() && b.rt.Post(node, fn)
	}, depth)
	cfg := DefaultConfig()
	b.prop = time.Duration(cfg.PropDelay)
	b.rt.Exec(func() {
		b.net = NewOn(b.rt, b.tr, mgr, cfg)
		for _, c := range b.conns {
			b.net.sinks[c.ID] = &sink{}
		}
	})
	return b
}

// settle waits until the line is empty: every message the transport took has
// been posted to its mailbox or counted in Dropped().
func (b *pipeBed) settle(t *testing.T) {
	t.Helper()
	for limit := time.Now().Add(5 * time.Second); b.tr.queued() > 0; {
		if time.Now().After(limit) {
			t.Fatal("the line never emptied")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// flush waits until nothing the transport took is still on its way: the line
// is empty (settle), and every actor has run what its mailbox held, which a
// marker posted behind it shows. Each message has then reached its sink or
// been counted as dropped.
func (b *pipeBed) flush(t *testing.T) {
	t.Helper()
	b.settle(t)
	var wg sync.WaitGroup
	for node := range b.net.nodes {
		wg.Add(1)
		if !b.rt.Post(node, wg.Done) {
			t.Fatalf("node %d refused the flush marker", node)
		}
	}
	wg.Wait()
}

// queued returns the messages in the line.
func (t *PipeTransport) queued() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nq
}

func (b *pipeBed) stop() {
	b.tr.Close()
	b.rt.Stop()
}

// send hands one data message for connection i to the transport. Call under
// Exec. arrives says whether the test expects it at the sink.
func (b *pipeBed) send(i int, arrives bool) {
	b.seq[i]++
	now := b.rt.Now()
	pkt := b.net.getDataBox()
	*pkt = dataPayload{conn: b.conns[i].ID, ch: b.conns[i].Primary.ID, seq: b.seq[i], sent: now}
	if arrives {
		b.sent[i] = append(b.sent[i], now)
	}
	b.tr.SendData(b.links[i], pkt)
}

// drain waits until every sink holds what the test expects, then returns per
// connection the transit time (arrival - send stamp) of each message.
func (b *pipeBed) drain(t *testing.T) [][]time.Duration {
	t.Helper()
	limit := time.Now().Add(5 * time.Second)
	for {
		done := true
		b.rt.Exec(func() {
			for i, c := range b.conns {
				if int(b.net.sinks[c.ID].received) < len(b.sent[i]) {
					done = false
				}
			}
		})
		if done {
			break
		}
		if time.Now().After(limit) {
			t.Fatal("messages the transport accepted never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	b.flush(t) // anything that should not arrive has had its chance
	transit := make([][]time.Duration, len(b.conns))
	b.rt.Exec(func() {
		for i, c := range b.conns {
			sk := b.net.sinks[c.ID]
			if int(sk.received) != len(b.sent[i]) {
				t.Fatalf("link %d: %d messages arrived, want %d", b.links[i], sk.received, len(b.sent[i]))
			}
			if sk.reordered != 0 {
				t.Fatalf("link %d: %d messages arrived out of order", b.links[i], sk.reordered)
			}
			for k, at := range sk.arrivals {
				d := at.Sub(b.sent[i][k])
				if d < b.prop {
					t.Fatalf("link %d message %d delivered after %v, before its %v deadline", b.links[i], k, d, b.prop)
				}
				transit[i] = append(transit[i], d)
			}
		}
	})
	return transit
}

func quantile(d []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

// TestPipeTransit sends over four links of an idle network through the one
// shared line: no message arrives before its deadline, each link keeps its
// order, a link that is down or at its depth bound refuses without stalling
// or reordering the others, Dropped() counts what it always counted, and the
// median transit stays close to the propagation delay (on Go timers alone it
// was a millisecond over).
func TestPipeTransit(t *testing.T) {
	const (
		depth   = 4
		ceiling = 800 * time.Microsecond
		a, b, c = 0, 1, 2 // steady links; c goes down half way
		d       = 3       // the link driven past its depth bound
	)
	testhost.Retry(t, timingAttempts, timingTolerate, func() error {
		bed := newPipeBed(t, depth,
			[2]topology.NodeID{0, 1}, [2]topology.NodeID{3, 4}, [2]topology.NodeID{6, 7}, [2]topology.NodeID{1, 2})
		round := func(fn func()) {
			bed.rt.Exec(fn)
			bed.settle(t) // no link carries the last round's messages into the next
		}
		for i := 0; i < 60; i++ {
			round(func() { bed.send(a, true); bed.send(b, true); bed.send(c, true); bed.send(a, true) })
		}
		quiet := [2]int{len(bed.sent[a]), len(bed.sent[b])}

		bed.rt.Exec(func() { bed.tr.SetLinkDown(bed.links[c], true) })
		for i := 0; i < 20; i++ {
			round(func() { bed.send(a, true); bed.send(c, false); bed.send(b, true) })
		}
		if n := bed.tr.Dropped(); n != 0 {
			t.Fatalf("Dropped() = %d after link-down refusals, want 0", n)
		}
		round(func() { // one burst: d takes depth messages and refuses the rest
			for i := 0; i < 10; i++ {
				bed.send(d, i < depth)
				if i%4 == 0 { // a stays under the bound and flows between d's refusals
					bed.send(a, true)
				}
			}
		})
		if n := bed.tr.Dropped(); n != 10-depth {
			t.Fatalf("Dropped() = %d after a burst of 10 on a depth-%d link, want %d", n, depth, 10-depth)
		}
		bed.refusePost.Store(true)
		round(func() { bed.send(b, false) })
		bed.refusePost.Store(false)
		if n := bed.tr.Dropped(); n != 10-depth+1 {
			t.Fatalf("Dropped() = %d after one refused mailbox post, want %d", n, 10-depth+1)
		}
		round(func() { bed.send(a, true); bed.send(b, true); bed.send(d, true) })

		transit := bed.drain(t)
		bed.stop()
		idle := quantile(append(transit[a][:quiet[a]:quiet[a]], transit[b][:quiet[b]]...), 0.5)
		disturbed := quantile(append(transit[a][quiet[a]:], transit[b][quiet[b]:]...), 0.5)
		t.Logf("median transit %v idle, %v beside a down and a full link (propagation %v)", idle, disturbed, bed.prop)
		if idle > ceiling || disturbed > ceiling {
			return fmt.Errorf("median transit %v idle, %v disturbed, want <= %v", idle, disturbed, ceiling)
		}
		return nil
	})
}

// TestSleepersDoNotStarveActors runs both waiters in their precise phase at
// once — a 200 us timer re-arming itself, data messages always in flight —
// on two Ps, and measures what the actors see: Post -> run, and how far past
// its deadline a message reaches its sink. A waiter that slept in the kernel
// without yielding first would keep its P and leave the actor it had just
// posted to in that P's run queue until sysmon noticed: one message in ten
// then arrives 1-15 ms late (p99 5-11 ms here; with the yield, 250 us). The
// ceiling is on the p99, not the maximum: a virtual machine oversleeps a
// nanosleep by a millisecond about once in two thousand, on both waiters'
// threads at once, and that is the host's doing.
func TestSleepersDoNotStarveActors(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	const ceiling = time.Millisecond
	testhost.Retry(t, timingAttempts, timingTolerate, func() error {
		bed := newPipeBed(t, 64, [2]topology.NodeID{0, 1}, [2]topology.NodeID{3, 4})
		var tick func()
		tick = func() { bed.rt.Schedule(200*time.Microsecond, tick) }
		var feed func()
		feed = func() {
			bed.send(0, true)
			bed.send(1, true)
			bed.rt.Schedule(300*time.Microsecond, feed)
		}
		bed.rt.Exec(func() { tick(); feed() })

		var mu sync.Mutex
		var waits []time.Duration
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			posted := time.Now()
			bed.rt.Post(8, func() {
				w := time.Since(posted)
				mu.Lock()
				waits = append(waits, w)
				mu.Unlock()
			})
			time.Sleep(200 * time.Microsecond)
		}
		bed.rt.Exec(func() { tick, feed = func() {}, func() {} })
		transit := bed.drain(t)
		bed.stop()

		mu.Lock()
		postP99 := quantile(waits, 0.99)
		mu.Unlock()
		all := append(transit[0], transit[1]...)
		lateP99 := quantile(all, 0.99) - bed.prop
		t.Logf("Post->run p99 %v over %d posts; messages past their deadline p99 %v, max %v over %d",
			postP99, len(waits), lateP99, quantile(all, 1)-bed.prop, len(all))
		if postP99 >= ceiling || lateP99 >= ceiling {
			return fmt.Errorf("Post->run p99 %v, messages p99 %v past their deadline, want both under %v", postP99, lateP99, ceiling)
		}
		return nil
	})
}

// TestLiveSourceKeepsItsRate checks that a source's period runs from when an
// emission was due, not from when the late timer ran it: 200 ms at 1000 msg/s
// is 200 messages, not 200 ms divided by (period + lateness).
func TestLiveSourceKeepsItsRate(t *testing.T) {
	const rate, tolerance = 1000, 5
	testhost.Retry(t, timingAttempts, timingTolerate, func() error {
		bed := newPipeBed(t, 1024, [2]topology.NodeID{0, 1})
		conn := bed.conns[0].ID
		var t0, t1 sim.Time
		bed.rt.Exec(func() {
			t0 = bed.rt.Now()
			if err := bed.net.StartTraffic(conn, rate); err != nil {
				t.Fatal(err)
			}
		})
		time.Sleep(200 * time.Millisecond)
		bed.rt.Exec(func() {
			bed.net.StopTraffic(conn)
			t1 = bed.rt.Now()
		})
		bed.flush(t)
		var got int
		bed.rt.Exec(func() { got = int(bed.net.Stats().DataDelivered) })
		bed.stop()
		want := int(t1.Sub(t0)*rate/time.Second) + 1
		t.Logf("%d messages delivered in %v, want %d", got, t1.Sub(t0), want)
		if got < want-tolerance || got > want+tolerance {
			return fmt.Errorf("%d messages delivered in %v, want %d +- %d", got, t1.Sub(t0), want, tolerance)
		}
		return nil
	})
}
