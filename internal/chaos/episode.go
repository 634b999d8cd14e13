package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// Episode timing: short rejoin timers keep episodes fast; the drain budget
// covers one full rejoin timeout after the heal-everything step plus the
// longest rejoin round trip.
const (
	episodeRejoinTimeout = sim.Duration(1 * time.Second)
	episodeProbeDelay    = sim.Duration(100 * time.Millisecond)
	episodeDrainBudget   = sim.Duration(3 * time.Second)
	episodeTrafficRate   = 200 // data messages/second per connection
)

// RunOptions are the per-run knobs that are not part of the spec: the spec
// says what happens to the network, the options say what we do with it.
type RunOptions struct {
	// Sabotage re-introduces a known-fixed bug (harness self-test).
	Sabotage *bcpd.Sabotage
	// FrameTap observes every RCC frame image that crossed the wire —
	// clean ones at send time and corrupted ones after mangling — for
	// fuzz-corpus harvesting. The buffer is pooled; the tap must copy.
	FrameTap func(frame []byte)
}

// Result is the outcome of one episode.
type Result struct {
	// Violations from the conformance oracle, the quiescence audit, and
	// the liveness rule, in that order. Empty means the episode passed.
	Violations []string
	// Digest is the SHA-256 of the episode's JSONL event stream — the
	// determinism witness (same spec ⇒ same digest).
	Digest string
	// Events counts trace events in the stream.
	Events int
	// Conns counts established connections; Reestablished counts those
	// that ended with a healthy primary.
	Conns, Reestablished int
	// Recoveries are the recoveries the episode closed.
	Recoveries []trace.Recovery
	// Flight is what the flight recorder kept up to the first conformance
	// violation, or to the end when only the audits failed; nil on a pass.
	Flight []trace.Event
}

// digestSink hashes the event stream in JSONL encoding as it is emitted, so
// thousand-episode runs never hold an episode's events in memory.
type digestSink struct {
	hash   hash.Hash
	events int
}

func newDigestSink() *digestSink { return &digestSink{hash: sha256.New()} }

func (d *digestSink) Emit(ev trace.Event) {
	b, err := ev.MarshalJSON()
	if err != nil {
		panic("chaos: event marshal: " + err.Error())
	}
	d.hash.Write(b)
	d.hash.Write([]byte{'\n'})
	d.events++
}

func (d *digestSink) Sum() string { return hex.EncodeToString(d.hash.Sum(nil)) }

// RunEpisode executes one spec: establish, inject the fault schedule under
// the hostile transport, heal everything, drain to quiescence, audit.
func RunEpisode(spec Spec, opts RunOptions) (Result, error) {
	var res Result
	mgr, conns, err := spec.establish()
	if err != nil {
		return res, err
	}
	res.Conns = len(conns)
	g := mgr.Graph()
	eng := sim.New(spec.Seed)

	cfg := bcpd.DefaultConfig()
	cfg.RejoinTimeout = episodeRejoinTimeout
	cfg.RejoinProbeDelay = episodeProbeDelay
	cfg.MaxQueue = 128
	cfg.Sabotage = opts.Sabotage
	if tap := opts.FrameTap; tap != nil {
		cfg.FrameTap = func(_ topology.LinkID, frame []byte) { tap(frame) }
	}

	digest := newDigestSink()
	cfg.Sink = digest

	params := bcpd.ChaosParams{
		Seed: mix(spec.Seed, 0x9e3779b97f4a7c15),
		Default: bcpd.LinkChaos{
			Drop:     spec.Chaos.Drop,
			Dup:      spec.Chaos.Dup,
			Corrupt:  spec.Chaos.Corrupt,
			Delay:    spec.Chaos.Delay,
			DelayMax: sim.Duration(spec.Chaos.DelayMaxNS),
		},
	}
	if tap := opts.FrameTap; tap != nil {
		params.CorruptTap = func(_ topology.LinkID, frame []byte) { tap(frame) }
	}
	ct := bcpd.NewChaosTransport(bcpd.NewSimTransport(), params)
	// Safety rules stay on; chaos jitter, loss, and partitions have no
	// closed-form recovery bound.
	net := bcpd.NewChecked(eng, ct, mgr, cfg, func(p *conformance.Params) {
		p.Gamma = nil // needs the bound hop-exact under loss (ROADMAP 1(a))
		// Packets already in flight (propagation plus residual
		// transmission) may deliver shortly after a crash.
		p.PropSlack = sim.Duration(6 * time.Millisecond)
	})

	for _, c := range conns {
		if err := net.StartTraffic(c.ID, episodeTrafficRate); err != nil {
			return res, fmt.Errorf("chaos: start traffic: %w", err)
		}
	}

	// Inject the schedule. Events are scheduled up front; the engine
	// interleaves them with protocol activity deterministically.
	for _, ev := range spec.Events {
		ev := ev
		eng.At(sim.Time(ev.AtNS), func() {
			switch ev.Kind {
			case EvFailLink:
				net.FailLink(topology.LinkID(ev.Target))
			case EvRepairLink:
				net.RepairLink(topology.LinkID(ev.Target))
			case EvFailNode:
				net.FailNode(topology.NodeID(ev.Target))
			case EvRepairNode:
				net.RepairNode(topology.NodeID(ev.Target))
			case EvCutLink:
				ct.SetPartition(topology.LinkID(ev.Target), true)
			case EvHealLink:
				ct.SetPartition(topology.LinkID(ev.Target), false)
			}
		})
	}
	eng.RunFor(sim.Duration(spec.HorizonNS))

	// Heal everything: repair every component, lift every partition, turn
	// the packet chaos off, stop the data sources — then drain. From here
	// the network must converge to a quiet, consistent state on its own
	// (rejoins completing or rejoin timers reclaiming).
	for v := 0; v < g.NumNodes(); v++ {
		if net.NodeDown(topology.NodeID(v)) {
			net.RepairNode(topology.NodeID(v))
		}
	}
	for l := 0; l < g.NumLinks(); l++ {
		if net.LinkDown(topology.LinkID(l)) {
			net.RepairLink(topology.LinkID(l))
		}
	}
	ct.HealAllPartitions()
	for l := 0; l < g.NumLinks(); l++ {
		ct.SetLinkChaos(topology.LinkID(l), bcpd.LinkChaos{})
	}
	for _, c := range conns {
		net.StopTraffic(c.ID)
	}

	deadline := eng.Now().Add(episodeDrainBudget)
	for eng.Pending() > 0 && eng.Now() < deadline {
		eng.Step()
	}

	var violations []string
	if eng.Pending() > 0 {
		violations = append(violations,
			fmt.Sprintf("failed to quiesce: %d events still pending after %v drain", eng.Pending(), episodeDrainBudget))
	}
	checked := net.Checker.Finish()
	for _, v := range checked {
		violations = append(violations, "conformance: "+v.String())
	}
	violations = append(violations, net.CheckQuiescence()...)
	for _, c := range conns {
		if net.ConnectionEstablished(c.ID) {
			res.Reestablished++
		} else if spec.Benign {
			violations = append(violations,
				fmt.Sprintf("liveness: connection %d not re-established after benign schedule", c.ID))
		}
	}

	res.Violations = violations
	if len(violations) > 0 {
		res.Flight = net.Flight(checked)
	}
	res.Recoveries = net.Checker.Recoveries()
	res.Digest = digest.Sum()
	res.Events = digest.events
	return res, nil
}

// mix is a splitmix64 step: decorrelates derived seeds (per-episode, per
// subsystem) from the run seed.
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
