// Package bcpd is the message-level BCP protocol engine: one BCP daemon per
// node, exchanging failure reports, activation messages, and rejoin traffic
// over per-link real-time control channels (internal/rcc), with data packets
// flowing through priority link schedulers (internal/sched) — all inside a
// deterministic discrete-event simulation (internal/sim).
//
// Where internal/core gives the transactional view the paper's tables are
// computed from, this package executes the protocol of §4 and §5 in
// simulated time: detection latency, per-hop control delays, channel-state
// machines (N/P/B/U, Figure 4), the three channel-switching schemes
// (Figure 5), spare-bandwidth claims with multiplexing failures, soft-state
// rejoin timers and channel repair (Figure 6), and the data-message loss of
// Figure 8.
//
// The daemons mutate the shared resource plane only through core.Manager's
// public entry points (claims, activation, teardown, rejoin), which
// serialize behind the manager's single-writer lock — so the simulation can
// coexist with concurrent read-side users of the same manager (e.g. failure
// sweeps through TrialViews), though the event loop itself is
// single-threaded.
package bcpd

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rcc"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// Scheme selects the failure-reporting / channel-switching scheme of §4.2.
type Scheme uint8

const (
	// Scheme1: the downstream neighbor of the failed component reports to
	// the channel destination, which activates the backup toward the
	// source; data resumes when the source receives the activation.
	Scheme1 Scheme = 1
	// Scheme2: the upstream neighbor reports to the source, which activates
	// toward the destination and resumes data immediately.
	Scheme2 Scheme = 2
	// Scheme3: both of the above; activations meeting in the middle are
	// discarded. The paper's choice.
	Scheme3 Scheme = 3
)

// Config parameterizes the protocol engine.
type Config struct {
	// Scheme is the channel-switching scheme (default Scheme3).
	Scheme Scheme
	// RCC are the control-channel parameters.
	RCC rcc.Params
	// PropDelay is the per-link propagation delay.
	PropDelay sim.Duration
	// DetectionLatency is the time from a component crash to its neighbors
	// noticing ([HAN97a] is out of scope; this models its output).
	DetectionLatency sim.Duration
	// RejoinTimeout is the soft-state timer for unhealthy channels (§4.4).
	RejoinTimeout sim.Duration
	// RejoinProbeDelay is how long the source waits after a failure report
	// before sending a rejoin-request along the broken path.
	RejoinProbeDelay sim.Duration
	// DataMsgSize is the size of one data message in bytes.
	DataMsgSize int
	// MaxQueue bounds each link scheduler class queue (0 = unbounded).
	MaxQueue int

	// PriorityDelayUnit enables the delayed-activation flavor of
	// priority-based activation (§4.3): a backup with multiplexing degree α
	// waits α·PriorityDelayUnit before its activation message is sent, so
	// more critical connections claim spare bandwidth first. Zero disables.
	PriorityDelayUnit sim.Duration
	// AllowPreemption enables the preemption flavor of §4.3: when a link's
	// spare is exhausted, an activation may revoke the claim of a strictly
	// lower-priority (larger-degree) backup, which is then handled as if it
	// had failed.
	AllowPreemption bool

	// ReplenishDelay, when positive, restores a connection's backup count
	// this long after a successful recovery (§4.4: resource reconfiguration
	// is not time-critical, so replenishment runs well after switching).
	// The new backups reuse the connection's last configured degree.
	ReplenishDelay sim.Duration

	// PerMessageDispatch disables dispatch rounds (round.go): every control
	// is submitted and every rejoin timer armed one at a time, as the engine
	// did before batching. The protocol outcome is identical — this exists
	// as the A/B baseline for the batched fan-out benchmarks and the
	// equivalence property tests.
	PerMessageDispatch bool

	// HeartbeatInterval enables heartbeat-based failure detection: every
	// daemon emits a heartbeat per outgoing link at this interval, and the
	// downstream neighbor declares the link failed after heartbeatMiss
	// silent intervals. Zero (the default) keeps oracle detection:
	// FailLink/FailNode notify the neighbors after DetectionLatency.
	HeartbeatInterval sim.Duration

	// Sink, when non-nil, receives a typed trace.Event for every protocol
	// occurrence (detection, report and activation hops, Figure-4 state
	// transitions, claims, multiplexing failures, rejoins, teardowns, RCC
	// retransmissions/ACKs), timestamped in simulated time. Consumed by the
	// conformance checker, the metrics aggregator, and the bcptrace tool.
	// A nil sink is free on the hot path: emissions are guarded by a single
	// branch and no event is constructed.
	Sink trace.Sink
	// FrameTap, when non-nil, observes every marshaled RCC frame as it
	// enters link's scheduler (before any loss). Used to harvest real
	// frame encodings, e.g. as a fuzzing corpus. The frame buffer is
	// recycled after delivery — the tap must copy anything it retains.
	FrameTap func(link topology.LinkID, frame []byte)

	// Sabotage, when non-nil, re-introduces a known-fixed bug for harness
	// self-tests (the chaos model checker proves it still catches it).
	Sabotage *Sabotage
}

// DefaultConfig returns timing typical of the paper's setting: millisecond
// propagation, fast detection, rejoin timers far above the recovery delay.
func DefaultConfig() Config {
	return Config{
		Scheme:           Scheme3,
		RCC:              rcc.DefaultParams(),
		PropDelay:        sim.Duration(500 * time.Microsecond),
		DetectionLatency: sim.Duration(time.Millisecond),
		RejoinTimeout:    sim.Duration(5 * time.Second),
		RejoinProbeDelay: sim.Duration(50 * time.Millisecond),
		DataMsgSize:      1000,
		MaxQueue:         0,
	}
}

// Transport carries protocol traffic between daemons. The Network calls the
// Send side from runtime-serialized protocol code; the transport delivers to
// the far daemon by calling back into Network.deliverFrame / deliverData /
// deliverHeartbeat, also runtime-serialized (directly in sim; via the
// receiving node's actor mailbox in live runs).
//
// Ownership: SendFrame transfers the marshaled frame buffer (checked out of
// the network's rcc.BufferPool) to the transport, which must either carry it
// to deliverFrame (the network Puts it back after HandleFrame) or reclaim it
// through the network's drop path. SendData likewise transfers the pooled
// *dataPayload box.
type Transport interface {
	// Attach binds the transport to its network. Called exactly once, from
	// NewOn, after the daemons and RCC endpoints exist and before any
	// traffic flows.
	Attach(n *Network)
	// SendFrame transmits one marshaled RCC control frame over link l.
	SendFrame(l topology.LinkID, frame []byte)
	// SendData transmits one data message over link l.
	SendData(l topology.LinkID, p *dataPayload)
	// SendHeartbeat transmits one heartbeat over link l.
	SendHeartbeat(l topology.LinkID)
	// SetLinkDown fails or repairs link l: a down link loses everything
	// submitted to it (and, per the crash model, everything queued).
	SetLinkDown(l topology.LinkID, down bool)
	// Close releases the transport's goroutines. The sim
	// transport is a no-op; live transports must be closed before their
	// runtime is stopped.
	Close()
}

// linkRuntime is the protocol-side state of one simplex link: the RCC
// endpoint that sends control frames over it, and the daemons' view of its
// health. The transmitter itself lives behind the Transport.
type linkRuntime struct {
	id   topology.LinkID
	rccE *rcc.Endpoint // owned by the From-side daemon; sends over this link
	down bool
	// Heartbeat detection state, idle unless Config.HeartbeatInterval > 0:
	// when the To-side daemon last heard a beat, and whether it has already
	// declared the link failed.
	heartbeatLastSeen sim.Time
	declaredDown      bool
}

// Network is the protocol engine for one topology.
type Network struct {
	rt    runtime.Runtime
	tr    Transport
	mgr   *core.Manager
	cfg   Config
	links []*linkRuntime
	// linksDown counts links with down set (setLinkDown keeps it), so the
	// common replenishment — nothing failed — skips its per-link avoid scan.
	linksDown int
	nodes     []*daemon

	// soft is every daemon's per-channel soft state (soft.go).
	soft softTable

	sources map[rtchan.ConnID]*source
	sinks   map[rtchan.ConnID]*sink

	// em wraps cfg.Sink; the zero Emitter (nil sink) disables all protocol
	// event emission at the cost of one branch per site.
	em trace.Emitter

	// Recycled per-recovery scratch. framePool recycles marshaled RCC
	// frame buffers across every endpoint (Get at marshal, Put after
	// HandleFrame in deliverFrame or by the transport's drop path — a
	// dropped frame is reclaimed, not leaked). dataFree recycles the
	// pointer boxes that carry data payloads without re-boxing an
	// interface per packet; dataOut counts boxes checked out so pool-
	// balance tests can prove drops reclaim them. chanListFree recycles
	// the affected-channel fan-out lists built when a component fails.
	framePool    *rcc.BufferPool
	dataFree     []*dataPayload
	dataOut      int
	chanListFree [][]rtchan.ChannelID

	// perMsg mirrors cfg.PerMessageDispatch; round is the dispatch-round
	// staging area (round.go), inert while perMsg is set.
	perMsg bool
	round  dispatchRound
	// Pools for the round's batch timers (batchtimer.go): a fired batch
	// recycles its entry storage and its single prebuilt fire closure.
	rejoinBatchFree []*timerBatch[rejoinEntry]
	probeBatchFree  []*timerBatch[probeEntry]
	replBatchFree   []*timerBatch[rtchan.ConnID]

	stats Stats
}

// pop takes the last entry off a free list; an empty list gives the zero T.
func pop[T any](free *[]T) (v T) {
	if k := len(*free); k > 0 {
		v, (*free)[k-1] = (*free)[k-1], v
		*free = (*free)[:k-1]
	}
	return v
}

// getDataBox returns a recycled data-payload box.
func (n *Network) getDataBox() *dataPayload {
	n.dataOut++
	if b := pop(&n.dataFree); b != nil {
		return b
	}
	return &dataPayload{}
}

func (n *Network) putDataBox(p *dataPayload) {
	n.dataOut--
	*p = dataPayload{}
	n.dataFree = append(n.dataFree, p)
}

// PoolOutstanding reports pooled objects currently checked out: RCC frame
// buffers in flight between SendFrame and their Put, and data-payload boxes
// between getDataBox and putDataBox. With the sim transport quiescent-idle
// (nothing queued or propagating), both must equal the transport's in-transit
// counts — the pool-balance invariant the storm test asserts.
func (n *Network) PoolOutstanding() (frames, data int) {
	return n.framePool.Outstanding(), n.dataOut
}

// snapshotIDs copies the ids of an rtchan link list into a recycled buffer,
// for a failure fan-out that runs after the crash rather than inside it
// (FailNode fills one through AppendChannelsAtNode instead). It keeps ids,
// not the handles: a channel torn down before the fan-out runs must resolve
// to nil there, not to its dead record. Callers return the buffer with
// putChanList once the reports are out.
func (n *Network) snapshotIDs(list []*rtchan.Channel) []rtchan.ChannelID {
	ids := pop(&n.chanListFree)
	for _, ch := range list {
		ids = append(ids, ch.ID)
	}
	return ids
}

func (n *Network) putChanList(b []rtchan.ChannelID) {
	if cap(b) > 0 {
		n.chanListFree = append(n.chanListFree, b[:0])
	}
}

// Stats aggregates network-wide protocol counters.
type Stats struct {
	Detections         uint64 // heartbeat-based failure declarations
	ReportsGenerated   uint64
	ActivationsStarted uint64
	ActivationsMet     uint64 // discarded at an already-activated node
	MuxFailures        uint64
	Preemptions        uint64
	RejoinRequests     uint64
	Rejoins            uint64
	BackupsReplenished uint64
	Closures           uint64
	RejoinExpiries     uint64
	DataSent           uint64
	DataDelivered      uint64
	DataDropped        uint64
}

// New builds the protocol engine over an established control plane, running
// in simulated time with the zero-copy in-sim transport — the deterministic
// configuration every simulation entry point uses.
func New(eng *sim.Engine, mgr *core.Manager, cfg Config) *Network {
	return NewOn(eng, NewSimTransport(), mgr, cfg)
}

// NewOn builds the protocol engine against an explicit (Runtime, Transport)
// pair: sim.Engine + SimTransport for deterministic runs, realtime.Runtime +
// PipeTransport for live ones. The manager's connections get per-node channel
// state installed (P for primaries, B for backups); data sources start on
// demand. Live callers must only touch the returned Network from
// runtime-serialized context (actor callbacks, timers, Exec).
func NewOn(rt runtime.Runtime, tr Transport, mgr *core.Manager, cfg Config) *Network {
	if cfg.Scheme == 0 {
		cfg.Scheme = Scheme3
	}
	g := mgr.Graph()
	n := &Network{
		rt:      rt,
		tr:      tr,
		mgr:     mgr,
		cfg:     cfg,
		links:   make([]*linkRuntime, g.NumLinks()),
		nodes:   make([]*daemon, g.NumNodes()),
		sources: make(map[rtchan.ConnID]*source),
		sinks:   make(map[rtchan.ConnID]*sink),

		em:        trace.NewEmitter(cfg.Sink),
		framePool: &rcc.BufferPool{},
		perMsg:    cfg.PerMessageDispatch,
	}
	n.round.pending = make([][]wireControl, g.NumLinks())
	// The resource plane shares the sink so claim-path events (claim,
	// release, convert, preempt, rejoin re-registration) interleave with the
	// protocol's, timestamped by the same clock.
	mgr.SetProtocolTrace(cfg.Sink, rt)
	// Coalesced reconfiguration rides with dispatch rounds: the batched
	// engine re-derives each touched link's Π structure only when a primary
	// change actually invalidated it, while the per-message baseline keeps
	// the pre-batching eager rebuild (see core/reconfig.go; the protocol
	// outcome is identical either way).
	mgr.SetCoalescedReconfig(!cfg.PerMessageDispatch)
	for i := range n.nodes {
		n.nodes[i] = &daemon{net: n, id: topology.NodeID(i)}
	}
	for _, l := range g.Links() {
		l := l
		lr := &linkRuntime{id: l.ID}
		// The endpoint for link l sends over l and receives frames that
		// traversed the reverse link, delivering their controls to l.From.
		rev := g.Reverse(l.ID)
		send := func(frame []byte) {
			n.tr.SendFrame(l.ID, frame)
		}
		if tap := cfg.FrameTap; tap != nil {
			inner := send
			send = func(frame []byte) {
				tap(l.ID, frame)
				inner(frame)
			}
		}
		recvOne := func(c wireControl) {
			d := n.nodes[l.From]
			if n.em.Enabled() && !d.dead {
				switch c.Type {
				case wire.MsgFailureReport:
					n.emitHop(trace.KindReportHop, rev, l.From, rtchan.ChannelID(c.Channel))
				case wire.MsgActivation:
					n.emitHop(trace.KindActivationHop, rev, l.From, rtchan.ChannelID(c.Channel))
				}
			}
			d.handleControl(c)
		}
		lr.rccE = rcc.NewEndpoint(rt, cfg.RCC, send, recvOne)
		if !cfg.PerMessageDispatch {
			// Batched delivery: the daemon processes the whole in-frame
			// control batch inside one dispatch round, so the fan-out those
			// controls trigger is staged and flushed per link rather than
			// submitted per message.
			lr.rccE.SetBatchReceiver(func(cs []wireControl) {
				opened := n.beginRound()
				for i := range cs {
					recvOne(cs[i])
				}
				if opened {
					n.endRound()
				}
			})
		}
		lr.rccE.SetTrace(cfg.Sink, l.From, l.ID)
		lr.rccE.SetBufferPool(n.framePool)
		n.links[l.ID] = lr
	}
	tr.Attach(n)
	// Install channel state for everything already established.
	for _, conn := range mgr.Connections() {
		n.installConnection(conn)
	}
	n.startHeartbeats()
	return n
}

// Transport returns the transport carrying this network's traffic.
func (n *Network) Transport() Transport { return n.tr }

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats { return n.stats }

// installConnection seeds the per-node state machines for a connection's
// channels.
func (n *Network) installConnection(conn *core.DConnection) {
	if conn.Primary != nil {
		n.emitInstall(conn.ID, conn.Primary, trace.StateP)
		n.install(conn.Primary, stateP)
	}
	for _, b := range conn.Backups {
		n.emitInstall(conn.ID, b, trace.StateB)
		n.install(b, stateB)
	}
}

// emitInstall records a channel entering the protocol plane with the given
// role; Aux carries the hop count for Γ-bound consumers.
func (n *Network) emitInstall(connID rtchan.ConnID, ch *rtchan.Channel, role trace.State) {
	if !n.em.Enabled() {
		return
	}
	n.em.Emit(trace.Event{
		At:      n.rt.Now(),
		Kind:    trace.KindInstall,
		Node:    topology.NoNode,
		Link:    topology.NoLink,
		Conn:    connID,
		Channel: ch.ID,
		To:      role,
		Aux:     int64(ch.Path.Hops()),
	})
}

// emitHop records a report/activation delivery across a link; callers check
// n.em.Enabled().
func (n *Network) emitHop(kind trace.Kind, l topology.LinkID, at topology.NodeID, ch rtchan.ChannelID) {
	n.em.Emit(trace.Event{
		At:      n.rt.Now(),
		Kind:    kind,
		Node:    at,
		Link:    l,
		Conn:    n.connOf(ch),
		Channel: ch,
	})
}

// emitChan records a per-channel protocol event at a node; callers check
// n.em.Enabled().
func (n *Network) emitChan(kind trace.Kind, node topology.NodeID, ch rtchan.ChannelID, aux int64) {
	n.em.Emit(trace.Event{
		At:      n.rt.Now(),
		Kind:    kind,
		Node:    node,
		Link:    topology.NoLink,
		Conn:    n.connOf(ch),
		Channel: ch,
		Aux:     aux,
	})
}

// emitState records a Figure-4 transition at a node; callers check
// n.em.Enabled(). The chanState and trace.State enumerations share their
// N/P/B/U ordering, so the conversion is a cast.
func (n *Network) emitState(node topology.NodeID, ch rtchan.ChannelID, from, to chanState) {
	n.em.Emit(trace.Event{
		At:      n.rt.Now(),
		Kind:    trace.KindState,
		Node:    node,
		Link:    topology.NoLink,
		Conn:    n.connOf(ch),
		Channel: ch,
		From:    trace.State(from),
		To:      trace.State(to),
	})
}

// emitComponent records a component crash/repair; callers check Enabled().
func (n *Network) emitComponent(kind trace.Kind, node topology.NodeID, link topology.LinkID) {
	n.em.Emit(trace.Event{
		At:   n.rt.Now(),
		Kind: kind,
		Node: node,
		Link: link,
	})
}

// connOf resolves a channel to its connection, falling back to a retired
// record for channels the resource plane has already released.
func (n *Network) connOf(ch rtchan.ChannelID) rtchan.ConnID {
	if c := n.channel(ch, n.soft.tab.Get(ch)); c != nil {
		return c.Conn
	}
	return 0
}

// TeardownConnection releases a D-connection through the protocol (§4.4):
// the source daemon sends a channel-closure message down every channel's
// path (intermediate daemons drop their state as it passes) and the
// resource plane releases the reservations. The data source, if any, stops.
func (n *Network) TeardownConnection(connID rtchan.ConnID) error {
	conn := n.mgr.Connection(connID)
	if conn == nil {
		return fmt.Errorf("bcpd: unknown connection %d", connID)
	}
	n.StopTraffic(connID)
	if n.em.Enabled() {
		n.em.Emit(trace.Event{
			At:   n.rt.Now(),
			Kind: trace.KindTeardown,
			Node: conn.Src,
			Link: topology.NoLink,
			Conn: connID,
		})
	}
	// A connection is left without a primary between a failed primary's
	// teardown, or its rejoin as a backup, and the next activation.
	chans := conn.Backups
	if conn.Primary != nil {
		chans = append([]*rtchan.Channel{conn.Primary}, chans...)
	}
	opened := n.beginRound()
	for _, ch := range chans {
		src := n.nodes[ch.Path.Source()]
		if r := n.soft.tab.Get(ch.ID); r != nil {
			r.retired = true
			src.stopRejoinTimer(r, 0)
			src.setState(r, 0, stateN)
		}
		n.stats.Closures++
		if n.em.Enabled() {
			n.emitChan(trace.KindClosure, src.id, ch.ID, 0)
		}
		src.send(ch, wire.MsgChannelClosure, 1)
	}
	if opened {
		n.endRound()
	}
	return n.mgr.Teardown(connID)
}

// scheduleReplenish restores the connection's backup population after a
// recovery, once the configured delay passes (§4.4). Inside a dispatch round
// the request is staged — endRound funds every request of the round with one
// shared batch timer (batchtimer.go); otherwise (and always in the
// per-message baseline) a private timer with a fresh closure is scheduled.
func (n *Network) scheduleReplenish(connID rtchan.ConnID) {
	if n.cfg.ReplenishDelay <= 0 {
		return
	}
	if r := &n.round; r.active {
		r.repl = append(r.repl, connID)
		return
	}
	n.rt.Schedule(n.cfg.ReplenishDelay, func() { n.replenishNow(connID) })
}

// replenishTarget is the backup count replenishment restores.
const replenishTarget = 1

// replenishNow re-checks the connection's backup count and establishes
// replacements if it is short — the §4.4 replenishment action, shared by
// both timer flavors. Duplicate requests are harmless: the first fire
// restores the target and the rest see a full population.
func (n *Network) replenishNow(connID rtchan.ConnID) {
	conn := n.mgr.Connection(connID)
	if conn == nil || conn.Primary == nil || len(conn.Backups) >= replenishTarget {
		return
	}
	before := len(conn.Backups)
	var avoid func(topology.LinkID) bool
	if n.linksDown > 0 {
		avoid = func(l topology.LinkID) bool { return n.links[l].down }
	}
	added, err := n.mgr.ReplenishBackups(connID, replenishTarget, conn.ReplacementDegree(), avoid)
	if err != nil || added == 0 {
		return
	}
	n.stats.BackupsReplenished += uint64(added)
	for _, b := range conn.Backups[before:] {
		if n.em.Enabled() {
			n.emitChan(trace.KindReplenish, conn.Src, b.ID, int64(b.Path.Hops()))
		}
		n.install(b, stateB)
	}
}

// deliverFrame dispatches a control frame that arrived at the far end of
// link l: the receiving daemon's endpoint for the reverse direction handles
// it (the endpoint pairs A->B sending with B->A reception), then the buffer
// returns to the pool — HandleFrame decodes into its own scratch and retains
// nothing. The transport relinquishes the buffer by calling this.
func (n *Network) deliverFrame(l topology.LinkID, data []byte) {
	rev := n.mgr.Graph().Reverse(l)
	if rev != topology.NoLink {
		n.links[rev].rccE.HandleFrame(data)
	}
	n.framePool.Put(data)
}

// deliverData dispatches a data message that arrived at the far end of link
// l; ownership of the box passes to handleData, which recycles it on every
// terminal path.
func (n *Network) deliverData(l topology.LinkID, p *dataPayload) {
	n.nodes[n.mgr.Graph().Link(l).To].handleData(p)
}

// deliverHeartbeat records a heartbeat arrival at the far end of link l.
func (n *Network) deliverHeartbeat(l topology.LinkID) {
	n.links[l].heartbeatLastSeen = n.rt.Now()
}

// reclaimFrame returns a frame buffer whose packet was dropped in transit
// (down link, queue overflow) to the pool — the leak fix for the boxes that
// used to ride dropped scheduler packets into the GC.
func (n *Network) reclaimFrame(data []byte) { n.framePool.Put(data) }

// reclaimData returns a data box whose packet was dropped in transit. Loss
// accounting stays where it always was (sched.LinkStats); only the box comes
// back.
func (n *Network) reclaimData(p *dataPayload) { n.putDataBox(p) }

// submitControl sends a control message from node v over link l's RCC.
// The message is submitted even when the link is down: the RCC's hop-by-hop
// retransmission holds it until the link is repaired, implementing the
// paper's rejoin semantics ("if the failed component becomes healthy again
// before the rejoin timer expires, it will also forward the rejoin-request
// message"). Control messages that outlive their purpose are ignored at the
// receiver by the channel state machine (duplicates in state U, unknown
// channels after teardown).
func (n *Network) submitControl(l topology.LinkID, c wireControl) {
	if n.round.active {
		n.stageControl(l, c)
		return
	}
	n.links[l].rccE.Submit(c)
}

// rccFrame and dataPayload type-tag scheduler payloads. Both travel as
// pointers so enqueueing does not box a fresh interface value per packet;
// the Network recycles the boxes after delivery. A box dropped with its
// packet (down link, queue overflow) simply leaves the pool.
type rccFrame struct {
	data []byte
}

type dataPayload struct {
	conn rtchan.ConnID
	ch   rtchan.ChannelID
	seq  uint64
}
