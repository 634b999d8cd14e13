package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/realtime"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// The live workload's fixed shape. Everything runs in this process: daemons
// are actor goroutines on the wall-clock runtime, links are in-memory pipes.
// No loopback socket and no real link is involved.
const (
	liveSide       = 4
	liveVictim     = topology.NodeID(5) // interior node (1,1) of the 4x4 mesh
	liveSources    = 8
	liveRate       = 1000 // msg/s per source
	liveSendPeriod = time.Second / liveRate
	liveWarmMsgs   = 10 // deliveries per source before the crash
	liveMailbox    = 4096
	livePipeDepth  = 1024
	liveTimeout    = 2 * time.Second
	livePoll       = 500 * time.Microsecond
)

func liveProtocolConfig() bcpd.Config {
	cfg := bcpd.DefaultConfig()
	// The Γ bound assumes immediate detection; the delay of interest is
	// recovery, not the detector.
	cfg.DetectionLatency = 0
	return cfg
}

// countingTransport taps the Transport seam: it forwards everything to the
// pipe transport and counts and times the control frames that cross (data
// messages travel in a type the package keeps to itself; Stats().DataSent
// counts them). Every Send runs runtime-serialized, so plain fields suffice;
// they are read after the runtime has stopped.
type countingTransport struct {
	bcpd.Transport
	frames, frameBytes int64
	sendFrameNs        int64
}

func (t *countingTransport) SendFrame(l topology.LinkID, frame []byte) {
	n := len(frame)
	t0 := time.Now()
	t.Transport.SendFrame(l, frame)
	t.sendFrameNs += int64(time.Since(t0))
	t.frames++
	t.frameBytes += int64(n)
}

// liveNet is one booted live network.
type liveNet struct {
	mgr     *core.Manager
	rt      *realtime.Runtime
	pipe    *bcpd.PipeTransport
	tap     *countingTransport // nil when untraced
	net     *bcpd.Network
	rec     *trace.Recorder // nil when untraced
	sources []rtchan.ConnID
	bootNs  int64

	// Filled by the trial that drives the network.
	failAt   sim.Time                   // runtime clock at FailNode
	arrivals map[rtchan.ConnID]sim.Time // per source, first arrival after its switch
	probe    liveProbe                  // traced pass only
}

// bootLive builds a fresh 4x4 mesh at 200 Mbps carrying all 210 ordered pairs
// between non-victim endpoints (degree-1 backups), starts 16 daemon actors
// and the pipe transport, and starts 8 sources at 1000 msg/s on seeded
// connections whose primaries cross the victim.
func bootLive(seed int64, rng *rand.Rand, traced bool) (*liveNet, error) {
	t0 := time.Now()
	g := topology.NewMesh(liveSide, liveSide, torusCapacity)
	mgr := core.NewManager(g, core.DefaultConfig())
	var crossing []rtchan.ConnID
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			if src == dst || src == liveVictim || dst == liveVictim {
				continue
			}
			c, err := mgr.Establish(src, dst, rtchan.DefaultSpec(), []int{1})
			if err != nil {
				return nil, fmt.Errorf("live: establish %d->%d: %w", s, d, err)
			}
			if crossesNode(c.Primary.Path, liveVictim) {
				crossing = append(crossing, c.ID)
			}
		}
	}
	if len(crossing) < liveSources {
		return nil, fmt.Errorf("live: only %d primaries cross node %d", len(crossing), liveVictim)
	}
	ln := &liveNet{mgr: mgr}
	ln.rt = realtime.New(seed)
	ln.rt.StartActors(g.NumNodes(), liveMailbox)
	ln.pipe = bcpd.NewPipeTransport(ln.rt.Post, livePipeDepth)
	cfg := liveProtocolConfig()
	var tr bcpd.Transport = ln.pipe
	if traced {
		ln.rec = &trace.Recorder{}
		cfg.Sink = ln.rec
		ln.tap = &countingTransport{Transport: ln.pipe}
		tr = ln.tap
	}
	ln.rt.Exec(func() { ln.net = bcpd.NewOn(ln.rt, tr, mgr, cfg) })
	for _, i := range rng.Perm(len(crossing))[:liveSources] {
		ln.sources = append(ln.sources, crossing[i])
	}
	var err error
	ln.rt.Exec(func() {
		for _, c := range ln.sources {
			if e := ln.net.StartTraffic(c, liveRate); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		ln.stop()
		return nil, err
	}
	ln.bootNs = int64(time.Since(t0))
	return ln, nil
}

// stop closes the transport, then the runtime; both join their goroutines.
func (ln *liveNet) stop() {
	ln.pipe.Close()
	ln.rt.Stop()
}

// await polls cond under the execution lock until it holds or limit passes.
func (ln *liveNet) await(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for {
		var ok bool
		ln.rt.Exec(func() { ok = cond() })
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(livePoll)
	}
}

// liveProbe samples the runtime's three waits from one goroutine while a
// recovery is in flight: the execution-lock round trip of a no-op Exec, the
// delay from Post to the actor running the item, and how late a 200 us timer
// fires. mailbox and timer samples are appended by runtime callbacks (under
// the execution lock); exec samples by the probe goroutine; all are read only
// after the runtime has stopped.
type liveProbe struct {
	exec, mailbox, timer []float64 // nanoseconds
}

func (p *liveProbe) run(rt *realtime.Runtime, nodes int, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	const timerDelay = 200 * time.Microsecond
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		rt.Exec(func() {})
		p.exec = append(p.exec, float64(time.Since(t0)))
		posted := time.Now()
		rt.Post(i%nodes, func() { p.mailbox = append(p.mailbox, float64(time.Since(posted))) })
		due := rt.Now().Add(timerDelay)
		rt.Schedule(timerDelay, func() { p.timer = append(p.timer, float64(rt.Now().Sub(due))) })
		time.Sleep(timerDelay)
	}
}
