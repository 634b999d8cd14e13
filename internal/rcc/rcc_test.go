package rcc

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/wire"
)

// pipe wires two endpoints over lossy in-order unidirectional channels with
// a fixed delay.
type pipe struct {
	eng      *sim.Engine
	delay    sim.Duration
	lossAtoB func() bool // nil = lossless
	lossBtoA func() bool
	a, b     *Endpoint
	recvA    []wire.Control
	recvB    []wire.Control
}

func newPipe(t *testing.T, p Params, delay sim.Duration) *pipe {
	t.Helper()
	pp := &pipe{eng: sim.New(1), delay: delay}
	pp.a = NewEndpoint(pp.eng, p, func(data []byte) {
		if pp.lossAtoB != nil && pp.lossAtoB() {
			return
		}
		d := append([]byte(nil), data...)
		pp.eng.Schedule(pp.delay, func() { pp.b.HandleFrame(d) })
	}, func(c wire.Control) { pp.recvA = append(pp.recvA, c) })
	pp.b = NewEndpoint(pp.eng, p, func(data []byte) {
		if pp.lossBtoA != nil && pp.lossBtoA() {
			return
		}
		d := append([]byte(nil), data...)
		pp.eng.Schedule(pp.delay, func() { pp.a.HandleFrame(d) })
	}, func(c wire.Control) { pp.recvB = append(pp.recvB, c) })
	return pp
}

func ctrl(id int64) wire.Control {
	return wire.Control{Type: wire.MsgFailureReport, Channel: id, Origin: 1, Toward: 1}
}

func TestDeliversInOrder(t *testing.T) {
	p := newPipe(t, DefaultParams(), sim.Duration(time.Millisecond))
	for i := int64(1); i <= 10; i++ {
		p.a.Submit(ctrl(i))
	}
	p.eng.RunFor(time.Second)
	if len(p.recvB) != 10 {
		t.Fatalf("delivered %d, want 10", len(p.recvB))
	}
	for i, c := range p.recvB {
		if c.Channel != int64(i+1) {
			t.Fatalf("out of order: %v", p.recvB)
		}
	}
	if p.a.Backlog() != 0 {
		t.Fatalf("backlog = %d after full delivery + ack", p.a.Backlog())
	}
}

func TestBatchingRespectsSMax(t *testing.T) {
	params := DefaultParams()
	params.SMax = 10 + 2*14 // header + 2 controls
	p := newPipe(t, params, sim.Duration(time.Millisecond))
	for i := int64(1); i <= 5; i++ {
		p.a.Submit(ctrl(i))
	}
	p.eng.RunFor(time.Second)
	if len(p.recvB) != 5 {
		t.Fatalf("delivered %d", len(p.recvB))
	}
	st := p.a.Stats()
	// 5 controls at <=2 per frame: at least 3 payload frames.
	if st.FramesSent < 3 {
		t.Fatalf("frames = %d, batching too aggressive for SMax", st.FramesSent)
	}
}

func TestRateLimitEnforced(t *testing.T) {
	params := DefaultParams()
	params.RMax = 100     // 10 ms between frames
	params.SMax = 10 + 14 // one control per frame
	eng := sim.New(1)
	var txTimes []sim.Time
	a := NewEndpoint(eng, params, func(data []byte) { txTimes = append(txTimes, eng.Now()) }, func(wire.Control) {})
	for i := int64(1); i <= 4; i++ {
		a.Submit(ctrl(i))
	}
	eng.RunFor(time.Second)
	// With no ACK path the endpoint keeps retransmitting; every
	// transmission (payload or retransmission) must respect the rate limit.
	if len(txTimes) < 4 {
		t.Fatalf("tx count = %d, want at least the 4 payload frames", len(txTimes))
	}
	for i := 1; i < len(txTimes); i++ {
		if gap := txTimes[i].Sub(txTimes[i-1]); gap < 10*time.Millisecond {
			t.Fatalf("frame gap %v violates RMax", gap)
		}
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	params := DefaultParams()
	p := newPipe(t, params, sim.Duration(time.Millisecond))
	dropped := 0
	p.lossAtoB = func() bool {
		// Drop the first payload transmission only.
		if dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	p.a.Submit(ctrl(7))
	p.eng.RunFor(time.Second)
	if len(p.recvB) != 1 || p.recvB[0].Channel != 7 {
		t.Fatalf("delivered %v", p.recvB)
	}
	if p.a.Stats().Retransmissions == 0 {
		t.Fatal("no retransmission recorded")
	}
	if p.a.Backlog() != 0 {
		t.Fatal("backlog not cleared after recovery")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	params := DefaultParams()
	p := newPipe(t, params, sim.Duration(time.Millisecond))
	// Drop all ACKs so the sender keeps retransmitting.
	p.lossBtoA = func() bool { return true }
	p.a.Submit(ctrl(3))
	p.eng.RunFor(200 * time.Millisecond)
	if len(p.recvB) != 1 {
		t.Fatalf("delivered %d copies, want exactly 1", len(p.recvB))
	}
	if p.b.Stats().Duplicates == 0 {
		t.Fatal("receiver saw no duplicates despite lost ACKs")
	}
}

func TestLossStorm(t *testing.T) {
	// 30% loss in both directions: everything must still arrive, in order,
	// exactly once.
	params := DefaultParams()
	p := newPipe(t, params, sim.Duration(time.Millisecond))
	rng := p.eng.RNG()
	p.lossAtoB = func() bool { return rng.Intn(10) < 3 }
	p.lossBtoA = func() bool { return rng.Intn(10) < 3 }
	const n = 50
	for i := int64(1); i <= n; i++ {
		i := i
		p.eng.Schedule(sim.Duration(i)*sim.Duration(time.Millisecond), func() {
			p.a.Submit(ctrl(i))
		})
	}
	p.eng.RunFor(30 * time.Second)
	if len(p.recvB) != n {
		t.Fatalf("delivered %d, want %d", len(p.recvB), n)
	}
	for i, c := range p.recvB {
		if c.Channel != int64(i+1) {
			t.Fatalf("delivery %d = channel %d, want %d", i, c.Channel, i+1)
		}
	}
}

func TestBidirectionalPiggyback(t *testing.T) {
	params := DefaultParams()
	p := newPipe(t, params, sim.Duration(time.Millisecond))
	for i := int64(1); i <= 5; i++ {
		p.a.Submit(ctrl(i))
		p.b.Submit(ctrl(100 + i))
	}
	p.eng.RunFor(time.Second)
	if len(p.recvA) != 5 || len(p.recvB) != 5 {
		t.Fatalf("recvA=%d recvB=%d", len(p.recvA), len(p.recvB))
	}
	// With traffic in both directions most ACKs should piggyback: pure-ACK
	// count stays low.
	if st := p.a.Stats(); st.PureAcksSent > st.FramesSent {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

// TestRestartStartsANewSession restarts a pair while a's first frame is on
// the wire and a second control waits for the next frame slot: the frame
// reaches b as a duplicate, a never retransmits it, the queued control is
// dropped, and frames of the new session then flow both ways.
func TestRestartStartsANewSession(t *testing.T) {
	delay := sim.Duration(time.Millisecond)
	p := newPipe(t, DefaultParams(), delay)
	p.a.Submit(ctrl(1))
	p.eng.RunFor(delay / 2)
	p.a.Submit(ctrl(9))
	if st := p.a.Stats(); st.FramesSent != 1 || p.a.Backlog() != 2 || p.b.Stats().FramesReceived != 0 {
		t.Fatalf("setup: a sent %d frames with backlog %d, b received %d; want one in flight and one queued",
			st.FramesSent, p.a.Backlog(), p.b.Stats().FramesReceived)
	}
	Restart(p.a, p.b)
	if p.a.Backlog() != 0 {
		t.Fatalf("a's backlog after the restart is %d, want 0", p.a.Backlog())
	}
	p.eng.RunFor(time.Second)
	if st := p.b.Stats(); st.FramesReceived != 1 || st.Duplicates != 1 || st.ControlsDeliv != 0 || st.OutOfOrder != 0 || len(p.recvB) != 0 {
		t.Fatalf("old-session frame after restart: b stats %+v, delivered %v; want one duplicate and nothing else", st, p.recvB)
	}
	if st := p.a.Stats(); st.Retransmissions != 0 || p.a.Backlog() != 0 {
		t.Fatalf("a retransmitted %d frames of the old session, backlog %d", st.Retransmissions, p.a.Backlog())
	}
	p.a.Submit(ctrl(2))
	p.b.Submit(ctrl(3))
	p.eng.RunFor(time.Second)
	if len(p.recvB) != 1 || p.recvB[0].Channel != 2 || len(p.recvA) != 1 || p.recvA[0].Channel != 3 {
		t.Fatalf("new session delivered a->b %v, b->a %v; want [2] and [3]", p.recvB, p.recvA)
	}
	if p.a.Backlog() != 0 || p.b.Backlog() != 0 {
		t.Fatalf("new session left backlogs %d, %d", p.a.Backlog(), p.b.Backlog())
	}
}

func TestCorruptFrameIgnored(t *testing.T) {
	params := DefaultParams()
	p := newPipe(t, params, 0)
	p.b.HandleFrame([]byte{1, 2, 3})
	if p.b.Stats().FramesReceived != 0 {
		t.Fatal("corrupt frame counted as received")
	}
}

func TestNewEndpointPanics(t *testing.T) {
	eng := sim.New(1)
	ok := Params{SMax: 256, RMax: 100, RetxTimeout: time.Millisecond}
	for name, p := range map[string]Params{
		"tiny smax": {SMax: 4, RMax: 100, RetxTimeout: time.Millisecond},
		"zero rmax": {SMax: 256, RMax: 0, RetxTimeout: time.Millisecond},
		"zero retx": {SMax: 256, RMax: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewEndpoint(eng, p, func([]byte) {}, func(wire.Control) {})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil callbacks: no panic")
			}
		}()
		NewEndpoint(eng, ok, nil, nil)
	}()
}
