// Package conformance checks a protocol event stream (internal/trace)
// against the paper's invariants, turning any protocol-mode run into a
// self-verifying fixture:
//
//   - State machine: every per-node channel transition is a legal edge of
//     Figure 4, starting from N, and each event's From matches the state the
//     stream itself established.
//   - Claim balance: spare-bandwidth claims are never doubled, only released
//     or converted while held, and none survive the run (unless the scenario
//     legitimately ends mid-recovery). A multiplexing failure names a link
//     the channel holds no claim on and a positive shortfall.
//   - Recovery delay: every source switch of a recovery in progress (as
//     trace.Recoveries derives it) lands within the Γ bound Params.Gamma
//     gives that recovery: on a bcpd network, §5's
//     Γ ≤ (K−1)·D_max + 2(b−1)(K−1)·D_max after the detection window, with
//     the frame intervals counted at the crash (bcpd/timing.go).
//   - Healthy traversal: failure reports and activation messages are only
//     delivered across links that are up (modulo in-flight propagation) and
//     to nodes that are alive.
//
// The Checker is itself a trace.Sink, so it can run streaming during a
// simulation (e.g. behind a trace.Tee) or replay a recorded stream via
// Check.
package conformance

import (
	"fmt"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// Params tunes the checker to a run's timing model. bcpd.NewChecked derives
// them from the network it checks; a run adjusts that result rather than
// assembling its own.
type Params struct {
	// Gamma is the Γ rule's bound, the longest recovery r may take from its
	// crash to the source's last switch (bcpd.Network.CountGamma). Nil turns
	// the rule off, for a run with no closed-form bound (loss, Schemes 1 and
	// 2); the caller that clears it says why.
	Gamma func(r trace.Recovery) sim.Duration
	// PropSlack tolerates control deliveries this long after a component
	// went down: packets already in flight still arrive (one propagation
	// delay plus any residual transmission).
	PropSlack sim.Duration
	// AllowOutstandingClaims skips the end-of-stream claim-balance rule for
	// scenarios that legitimately end mid-recovery.
	AllowOutstandingClaims bool
}

// Violation is one invariant breach.
type Violation struct {
	// Seq is the index of the offending event in the stream, or -1 for
	// end-of-stream violations.
	Seq int
	// At is the simulated time of the offending event.
	At sim.Time
	// Rule names the invariant: "order", "state-machine", "batch-order",
	// "claim", "gamma", or "traversal".
	Rule string
	// Detail is a human-readable description.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d at %v: %s: %s", v.Seq, v.At, v.Rule, v.Detail)
}

// legalEdges are the transitions of Figure 4 (with N as both the unborn and
// the torn-down state): establishment (N→P, N→B), activation (B→P), failure
// (P→U, B→U), rejoin (U→B), and teardown/closure from any live state.
var legalEdges = [4][4]bool{
	trace.StateN: {trace.StateP: true, trace.StateB: true},
	trace.StateP: {trace.StateU: true, trace.StateN: true},
	trace.StateB: {trace.StateP: true, trace.StateU: true, trace.StateN: true},
	trace.StateU: {trace.StateB: true, trace.StateN: true},
}

// intraBatchLegal is legalEdges restricted at batch boundaries: within one
// timestamp at one (node, channel) — a delivered control frame or a dispatch
// round, which execute instantaneously in simulated time — N is absorbing.
// Re-installation (N→P, N→B) is always a separately-timed event (an
// establishment, a replenish timer), so a same-timestamp departure from N
// means the dispatcher processed a stale control against a channel a
// same-batch closure had already killed.
var intraBatchLegal = func() [4][4]bool {
	e := legalEdges
	e[trace.StateN][trace.StateP] = false
	e[trace.StateN][trace.StateB] = false
	return e
}()

type nodeChan struct {
	node topology.NodeID
	ch   rtchan.ChannelID
}

type linkChan struct {
	link topology.LinkID
	ch   rtchan.ChannelID
}

// Checker consumes an event stream and accumulates violations. It is a
// trace.Sink; call Finish after the run for the end-of-stream rules and the
// collected violations.
type Checker struct {
	p          Params
	seq        int
	lastAt     sim.Time
	nodeStates map[nodeChan]trace.State
	// nReachedAt records when each (node, channel) last transitioned to N,
	// for the batch-order rule (N absorbing within one timestamp).
	nReachedAt map[nodeChan]sim.Time
	claims     map[linkChan]bool
	linkDown   map[topology.LinkID]sim.Time
	nodeDown   map[topology.NodeID]sim.Time
	rec        trace.Recoveries // the Γ rule's crash, K and b
	violations []Violation
	// gammaChecked counts recoveries compared against the Γ bound.
	gammaChecked int
}

// New creates a checker for one event stream.
func New(p Params) *Checker {
	return &Checker{
		p:          p,
		nodeStates: make(map[nodeChan]trace.State),
		nReachedAt: make(map[nodeChan]sim.Time),
		claims:     make(map[linkChan]bool),
		linkDown:   make(map[topology.LinkID]sim.Time),
		nodeDown:   make(map[topology.NodeID]sim.Time),
	}
}

// Check replays a recorded stream through a fresh checker.
func Check(events []trace.Event, p Params) []Violation {
	c := New(p)
	for _, ev := range events {
		c.Emit(ev)
	}
	return c.Finish()
}

func (c *Checker) violate(ev trace.Event, rule, format string, args ...interface{}) {
	c.violations = append(c.violations, Violation{
		Seq:    c.seq,
		At:     ev.At,
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Emit implements trace.Sink.
func (c *Checker) Emit(ev trace.Event) {
	if ev.At < c.lastAt {
		c.violate(ev, "order", "timestamp %v before predecessor %v", ev.At, c.lastAt)
	}
	c.lastAt = ev.At
	c.rec.Emit(ev)

	switch ev.Kind {
	case trace.KindLinkDown:
		c.linkDown[ev.Link] = ev.At
	case trace.KindLinkUp:
		delete(c.linkDown, ev.Link)
	case trace.KindNodeDown:
		c.nodeDown[ev.Node] = ev.At
	case trace.KindNodeUp:
		delete(c.nodeDown, ev.Node)

	case trace.KindState:
		key := nodeChan{ev.Node, ev.Channel}
		cur := c.nodeStates[key] // StateN when absent
		if ev.From != cur {
			c.violate(ev, "state-machine",
				"node %d channel %d: transition claims from %v but stream says %v",
				ev.Node, ev.Channel, ev.From, cur)
		}
		if !legalEdges[ev.From][ev.To] {
			c.violate(ev, "state-machine",
				"node %d channel %d: illegal Figure-4 edge %v->%v",
				ev.Node, ev.Channel, ev.From, ev.To)
		}
		if ev.From == trace.StateN {
			if nAt, sawN := c.nReachedAt[key]; sawN && nAt == ev.At && !intraBatchLegal[ev.From][ev.To] {
				c.violate(ev, "batch-order",
					"node %d channel %d: left N at the same instant it was torn down (%v->%v inside one batch)",
					ev.Node, ev.Channel, ev.From, ev.To)
			}
		}
		if ev.To == trace.StateN {
			delete(c.nodeStates, key)
			c.nReachedAt[key] = ev.At
		} else {
			c.nodeStates[key] = ev.To
		}

	case trace.KindClaim:
		key := linkChan{ev.Link, ev.Channel}
		if c.claims[key] {
			c.violate(ev, "claim", "channel %d double-claims link %d", ev.Channel, ev.Link)
		}
		c.claims[key] = true
	case trace.KindClaimRelease, trace.KindClaimConvert:
		key := linkChan{ev.Link, ev.Channel}
		if !c.claims[key] {
			c.violate(ev, "claim", "%s on link %d for channel %d without a claim",
				ev.Kind, ev.Link, ev.Channel)
		}
		delete(c.claims, key)
	case trace.KindMuxFailure:
		switch {
		case ev.Link == topology.NoLink:
			c.violate(ev, "claim", "multiplexing failure of channel %d names no link", ev.Channel)
		case c.claims[linkChan{ev.Link, ev.Channel}]:
			c.violate(ev, "claim", "multiplexing failure of channel %d on link %d, which it holds", ev.Channel, ev.Link)
		}
		if ev.Aux <= 0 {
			c.violate(ev, "claim", "multiplexing failure of channel %d carries shortfall %d", ev.Channel, ev.Aux)
		}

	case trace.KindReportHop, trace.KindActivationHop:
		if downAt, down := c.linkDown[ev.Link]; down && ev.At.Sub(downAt) > c.p.PropSlack {
			c.violate(ev, "traversal", "%s across link %d, down since %v",
				ev.Kind, ev.Link, downAt)
		}
		if _, down := c.nodeDown[ev.Node]; down {
			c.violate(ev, "traversal", "%s delivered to dead node %d", ev.Kind, ev.Node)
		}

	case trace.KindSourceSwitch:
		r, open := c.rec.Open(ev.Conn)
		if open && c.p.Gamma != nil && r.Hops >= 1 {
			c.gammaChecked++
			if bound := c.p.Gamma(r); r.Gamma() > bound {
				c.violate(ev, "gamma",
					"connection %d recovered in %v, bound %v (K-1=%d hops, b=%d backups)",
					ev.Conn, r.Gamma(), bound, r.Hops-1, r.Backups)
			}
		}
	}
	c.seq++
}

// Bound is the Γ bound the checker holds recovery r to, zero with the rule
// off.
func (c *Checker) Bound(r trace.Recovery) sim.Duration {
	if c.p.Gamma == nil {
		return 0
	}
	return c.p.Gamma(r)
}

// GammaChecked returns how many recoveries were compared against the Γ
// bound: zero with the rule off, and zero on a run whose sources carry no
// traffic, so a harness that turns the rule on asserts it was exercised.
func (c *Checker) GammaChecked() int { return c.gammaChecked }

// Recoveries returns the recoveries the stream closed so far: the same
// derivation (trace.Recoveries) the Γ rule reads.
func (c *Checker) Recoveries() []trace.Recovery { return c.rec.Done }

// Finish applies the end-of-stream rules and returns all violations (nil
// when the stream conforms).
func (c *Checker) Finish() []Violation {
	if !c.p.AllowOutstandingClaims {
		for key := range c.claims {
			c.violations = append(c.violations, Violation{
				Seq:  -1,
				At:   c.lastAt,
				Rule: "claim",
				Detail: fmt.Sprintf("channel %d still holds a claim on link %d at end of run",
					key.ch, key.link),
			})
		}
	}
	return c.violations
}
