package main

import (
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rcc"
	"github.com/rtcl/bcp/internal/sched"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/wire"
)

// Isolated-layer kernels: each drives one package through its exported
// functions alone, on inputs shaped like what the crash workloads feed it,
// so a change to that layer shows here even when the end-to-end metric it
// should move is inside the noise. Every kernel runs kernelBatches batches
// and reports the median batch mean, in nanoseconds per unit of work.

const kernelBatches = 5

func medianOf(batches int, batch func() float64) float64 {
	v := make([]float64, batches)
	for i := range v {
		v[i] = batch()
	}
	return percentile(sortedCopy(v), 0.5)
}

// kernelTimerChurn is the simulator's schedule/stop/fire loop over a
// standing population of 1024 timers: one mid-heap cancel, one push, and one
// short timer scheduled and fired per op.
func kernelTimerChurn(ops int, tr *tracer) float64 {
	const standing = 1024
	eng := sim.New(1)
	noop := func() {}
	timers := make([]sim.Timer, standing)
	for i := range timers {
		timers[i] = eng.Schedule(time.Hour+time.Duration(i)*time.Millisecond, noop)
	}
	i := 0
	return medianOf(kernelBatches, func() float64 {
		s := tr.begin("sim.timer_churn", int64(i), -1)
		t0 := time.Now()
		for k := 0; k < ops; k++ {
			j := i % standing
			i++
			timers[j].Stop()
			timers[j] = eng.Schedule(time.Hour, noop)
			eng.Schedule(time.Microsecond, noop)
			eng.Step()
		}
		d := time.Since(t0)
		tr.end(s)
		return float64(d) / float64(ops)
	})
}

func sampleControls(n int) []wire.Control {
	cs := make([]wire.Control, n)
	for i := range cs {
		cs[i] = wire.Control{Type: wire.MsgActivation, Channel: int64(1000 + i), Origin: int32(i % 64), Toward: 1}
	}
	return cs
}

// kernelRCC drives one endpoint pair on a simulator of its own: submit a
// batch of b controls, run until the frame is delivered and acknowledged.
// The cost per control covers submit, frame build, marshal, decode, the
// receiver upcall, and the ack and timer traffic both ways.
func kernelRCC(b, rounds int, tr *tracer) float64 {
	eng := sim.New(1)
	pool := &rcc.BufferPool{}
	params := rcc.DefaultParams()
	var a, z *rcc.Endpoint
	delivered := 0
	a = rcc.NewEndpoint(eng, params, func(f []byte) { z.HandleFrame(f); pool.Put(f) }, func(wire.Control) {})
	z = rcc.NewEndpoint(eng, params, func(f []byte) { a.HandleFrame(f); pool.Put(f) }, func(wire.Control) { delivered++ })
	a.SetBufferPool(pool)
	z.SetBufferPool(pool)
	cs := sampleControls(b)
	settle := params.AckDelay + 2*time.Millisecond
	round := 0
	ns := medianOf(kernelBatches, func() float64 {
		s := tr.begin("rcc.submit_deliver_ack", int64(round), -1)
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			a.SubmitBatch(cs)
			eng.RunFor(settle)
		}
		d := time.Since(t0)
		tr.end(s)
		round++
		return float64(d) / float64(rounds*b)
	})
	if delivered != kernelBatches*rounds*b {
		return -1 // the harness, not the layer, is broken; the caller fails the check
	}
	return ns
}

// kernelWire times the frame codec on frames of n controls.
func kernelWire(n, ops int, tr *tracer) (marshalNs, unmarshalNs float64, bytesPerControl float64) {
	f := wire.Frame{Seq: 7, Ack: 6, Controls: sampleControls(n)}
	buf := make([]byte, 0, f.Size())
	scratch := make([]wire.Control, 0, n)
	var enc []byte
	marshalNs = medianOf(kernelBatches, func() float64 {
		s := tr.begin("wire.MarshalAppend", int64(n), -1)
		t0 := time.Now()
		for k := 0; k < ops; k++ {
			enc, _ = f.MarshalAppend(buf[:0])
		}
		d := time.Since(t0)
		tr.end(s)
		return float64(d) / float64(ops)
	})
	unmarshalNs = medianOf(kernelBatches, func() float64 {
		s := tr.begin("wire.UnmarshalScratch", int64(n), -1)
		t0 := time.Now()
		for k := 0; k < ops; k++ {
			if g, err := wire.UnmarshalScratch(enc, scratch); err != nil || len(g.Controls) != n {
				return -1
			}
		}
		d := time.Since(t0)
		tr.end(s)
		return float64(d) / float64(ops)
	})
	return marshalNs, unmarshalNs, float64(f.Size()) / float64(n)
}

// kernelSched feeds one 200 Mbps link the crash workloads' two classes:
// per round a burst of one 256-byte control frame and eight 1000-byte data
// messages into class queues bounded at 16, then enough simulated time to
// transmit six of them, so the data queue fills and overflows at a fixed,
// seed-independent point. Returns wall nanoseconds per packet offered and the
// scheduler's own overflow count.
func kernelSched(rounds int, tr *tracer) (nsPerPacket float64, droppedQueue uint64) {
	const burst = 9
	eng := sim.New(1)
	link := sched.NewLink(eng, torusCapacity, 500*time.Microsecond, 16, func(sched.Packet) {})
	perPacket := time.Duration(float64(1000*8) / (torusCapacity * 1e6) * float64(time.Second))
	round := 0
	nsPerPacket = medianOf(kernelBatches, func() float64 {
		s := tr.begin("sched.enqueue_transmit", int64(round), -1)
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			link.Enqueue(sched.Packet{Class: sched.ClassControl, Size: 256, Payload: nil})
			for j := 1; j < burst; j++ {
				link.Enqueue(sched.Packet{Class: sched.ClassRealTime, Size: 1000, Payload: nil})
			}
			eng.RunFor(6 * perPacket)
		}
		d := time.Since(t0)
		tr.end(s)
		round++
		return float64(d) / float64(rounds*burst)
	})
	return nsPerPacket, link.Stats().DroppedQueue
}

// kernelClaimBatch replays the recovery claim path over the loaded plan: for
// up to limit connections, claim the first backup's whole path in one batch
// and release it. Returns the median nanoseconds per claim+release pair and
// how many pairs were admitted.
func kernelClaimBatch(mgr *core.Manager, limit int, tr *tracer) (float64, int) {
	var d []float64
	for _, c := range mgr.Connections() {
		if len(d) >= limit {
			break
		}
		if len(c.Backups) == 0 {
			continue
		}
		b := c.Backups[0]
		links := b.Path.Links()
		s := tr.begin("core.ClaimBatch+Release", int64(c.ID), -1)
		t0 := time.Now()
		_, ok := mgr.ClaimBatch(links, b.ID, b.Bandwidth())
		mgr.ReleaseClaimBatch(links, b.ID)
		el := time.Since(t0)
		tr.end(s)
		if ok {
			d = append(d, float64(el))
		}
	}
	return percentile(sortedCopy(d), 0.5), len(d)
}

// kernelReplenish replays the repair path over the loaded plan: for up to
// limit connections, add one more backup with ReplenishBackups (timed), then
// remove it again so the population is unchanged. Returns the median
// nanoseconds per successful replenishment and their count.
func kernelReplenish(mgr *core.Manager, limit int, tr *tracer) (float64, int) {
	var d []float64
	for _, c := range mgr.Connections() {
		if len(d) >= limit {
			break
		}
		have := len(c.Backups)
		if c.Primary == nil || have == 0 {
			continue
		}
		s := tr.begin("core.ReplenishBackups", int64(c.ID), -1)
		t0 := time.Now()
		added, err := mgr.ReplenishBackups(c.ID, have+1, 1, nil)
		el := time.Since(t0)
		tr.end(s)
		if err != nil || added != 1 {
			continue
		}
		extra := c.Backups[len(c.Backups)-1]
		if err := mgr.TeardownChannel(c.ID, extra.ID); err != nil {
			return -1, len(d)
		}
		d = append(d, float64(el))
	}
	return percentile(sortedCopy(d), 0.5), len(d)
}
