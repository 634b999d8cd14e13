package conformance

import (
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

func ms(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func wantRule(t *testing.T, viols []Violation, rule, fragment string) {
	t.Helper()
	for _, v := range viols {
		if v.Rule == rule && strings.Contains(v.Detail, fragment) {
			return
		}
	}
	t.Fatalf("no %q violation containing %q in %v", rule, fragment, viols)
}

func TestLegalRecoverySequencePasses(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 1, To: trace.StateP, Aux: 3},
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 2, To: trace.StateB, Aux: 3},
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 1, From: trace.StateN, To: trace.StateP},
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 2, From: trace.StateN, To: trace.StateB},
		{At: ms(50), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 4},
		{At: ms(51), Kind: trace.KindReportOriginate, Node: 1, Link: topology.NoLink, Conn: 1, Channel: 1, Aux: -1},
		{At: ms(51), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 1, From: trace.StateP, To: trace.StateU},
		{At: ms(52), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 2, From: trace.StateB, To: trace.StateP},
		{At: ms(52), Kind: trace.KindClaim, Node: topology.NoNode, Link: 7, Conn: 1, Channel: 2},
		{At: ms(53), Kind: trace.KindSourceSwitch, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 2},
		{At: ms(54), Kind: trace.KindClaimConvert, Node: topology.NoNode, Link: 7, Conn: 1, Channel: 2},
	}
	if viols := Check(events, Params{DMax: sim.Duration(5 * time.Millisecond), DetectionSlack: sim.Duration(2 * time.Millisecond)}); len(viols) != 0 {
		t.Fatalf("legal sequence flagged: %v", viols)
	}
}

func TestIllegalEdgeFlagged(t *testing.T) {
	events := []trace.Event{
		// N -> U is not a Figure-4 edge.
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateU},
	}
	wantRule(t, Check(events, Params{}), "state-machine", "illegal")
}

func TestMismatchedFromFlagged(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
		// The stream says node 0 holds B, but this event claims P -> U.
		{At: 1, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateP, To: trace.StateU},
	}
	wantRule(t, Check(events, Params{}), "state-machine", "stream says B")
}

func TestDoubleClaimFlagged(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.KindClaim, Node: topology.NoNode, Link: 3, Channel: 9},
		{At: 1, Kind: trace.KindClaim, Node: topology.NoNode, Link: 3, Channel: 9},
	}
	wantRule(t, Check(events, Params{AllowOutstandingClaims: true}), "claim", "double-claims")
}

func TestReleaseWithoutClaimFlagged(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.KindClaimRelease, Node: topology.NoNode, Link: 3, Channel: 9},
	}
	wantRule(t, Check(events, Params{}), "claim", "without a claim")
}

func TestOutstandingClaimFlaggedAtFinish(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.KindClaim, Node: topology.NoNode, Link: 3, Channel: 9},
	}
	wantRule(t, Check(events, Params{}), "claim", "still holds")
	if viols := Check(events, Params{AllowOutstandingClaims: true}); len(viols) != 0 {
		t.Fatalf("outstanding claim flagged despite allowance: %v", viols)
	}
}

func TestHopAcrossDownLinkFlagged(t *testing.T) {
	events := []trace.Event{
		{At: ms(10), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 5},
		{At: ms(20), Kind: trace.KindReportHop, Node: 2, Link: 5, Channel: 1},
	}
	wantRule(t, Check(events, Params{PropSlack: sim.Duration(time.Millisecond)}), "traversal", "down since")
	// Within the propagation allowance the same delivery is fine.
	if viols := Check(events, Params{PropSlack: sim.Duration(20 * time.Millisecond)}); len(viols) != 0 {
		t.Fatalf("in-flight delivery flagged: %v", viols)
	}
	// After repair the link is usable again.
	repaired := []trace.Event{
		{At: ms(10), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 5},
		{At: ms(15), Kind: trace.KindLinkUp, Node: topology.NoNode, Link: 5},
		{At: ms(20), Kind: trace.KindReportHop, Node: 2, Link: 5, Channel: 1},
	}
	if viols := Check(repaired, Params{}); len(viols) != 0 {
		t.Fatalf("post-repair delivery flagged: %v", viols)
	}
}

func TestHopToDeadNodeFlagged(t *testing.T) {
	events := []trace.Event{
		{At: ms(10), Kind: trace.KindNodeDown, Node: 2, Link: topology.NoLink},
		{At: ms(20), Kind: trace.KindActivationHop, Node: 2, Link: 5, Channel: 1},
	}
	wantRule(t, Check(events, Params{}), "traversal", "dead node")
}

func TestGammaBoundViolationFlagged(t *testing.T) {
	dmax := sim.Duration(time.Millisecond)
	base := []trace.Event{
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 1, To: trace.StateP, Aux: 4},
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 2, To: trace.StateB, Aux: 4},
		{At: ms(100), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 4},
		{At: ms(100), Kind: trace.KindReportOriginate, Node: 1, Link: topology.NoLink, Conn: 1, Channel: 1, Aux: -1},
	}
	// Bound: (K-1)·DMax = 3ms with b=1 and no slack. A 10ms recovery breaks it.
	late := append(append([]trace.Event(nil), base...),
		trace.Event{At: ms(110), Kind: trace.KindSourceSwitch, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 2})
	wantRule(t, Check(late, Params{DMax: dmax}), "gamma", "bound")
	// A 2ms recovery is within the bound.
	fast := append(append([]trace.Event(nil), base...),
		trace.Event{At: ms(102), Kind: trace.KindSourceSwitch, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 2})
	if viols := Check(fast, Params{DMax: dmax}); len(viols) != 0 {
		t.Fatalf("fast recovery flagged: %v", viols)
	}
	// DMax = 0 disables the rule entirely.
	if viols := Check(late, Params{}); len(viols) != 0 {
		t.Fatalf("gamma checked with DMax=0: %v", viols)
	}
	// A rule that is on counts each recovery it compared; off, it counts none.
	for _, tc := range []struct {
		p    Params
		want int
	}{{Params{DMax: dmax}, 1}, {Params{}, 0}} {
		c := New(tc.p)
		for _, ev := range fast {
			c.Emit(ev)
		}
		if got := c.GammaChecked(); got != tc.want {
			t.Errorf("GammaChecked with DMax=%v = %d, want %d", tc.p.DMax, got, tc.want)
		}
	}
}

func TestGammaCountsFailedBackupsInRetrialTerm(t *testing.T) {
	// Two backups; the first fails before the primary's report, so the
	// retrial term 2(b-1)(K-1)·DMax must use b=2, not the one live backup
	// left at the time the recovery starts.
	dmax := sim.Duration(time.Millisecond)
	events := []trace.Event{
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 1, To: trace.StateP, Aux: 4},
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 2, To: trace.StateB, Aux: 4},
		{At: 0, Kind: trace.KindInstall, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: 3, To: trace.StateB, Aux: 4},
		{At: ms(100), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 4},
		{At: ms(100), Kind: trace.KindReportOriginate, Node: 1, Link: topology.NoLink, Conn: 1, Channel: 2, Aux: -1},
		{At: ms(101), Kind: trace.KindReportOriginate, Node: 1, Link: topology.NoLink, Conn: 1, Channel: 1, Aux: -1},
		// Bound with b=2: 3ms + 2·3ms = 9ms. 8ms after the crash is inside.
		{At: ms(108), Kind: trace.KindSourceSwitch, Node: 0, Link: topology.NoLink, Conn: 1, Channel: 3},
	}
	if viols := Check(events, Params{DMax: dmax}); len(viols) != 0 {
		t.Fatalf("retrial recovery flagged: %v", viols)
	}
}

func TestBatchOrderNAbsorbingWithinTimestamp(t *testing.T) {
	// A channel torn down and re-installed at the same node within one
	// timestamp means a batched dispatcher ran a stale control after a
	// same-frame closure: N must be absorbing inside a batch.
	events := []trace.Event{
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
		{At: ms(10), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateB, To: trace.StateN},
		{At: ms(10), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
	}
	wantRule(t, Check(events, Params{}), "batch-order", "same instant")

	// The same re-installation one tick later is an ordinary Figure-4 cycle.
	legal := []trace.Event{
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
		{At: ms(10), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateB, To: trace.StateN},
		{At: ms(11), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
	}
	if viols := Check(legal, Params{}); len(viols) != 0 {
		t.Fatalf("later re-installation flagged: %v", viols)
	}

	// Distinct nodes tearing down and installing at one timestamp are
	// independent machines — no batch shares them.
	other := []trace.Event{
		{At: 0, Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
		{At: ms(10), Kind: trace.KindState, Node: 0, Link: topology.NoLink, Channel: 1, From: trace.StateB, To: trace.StateN},
		{At: ms(10), Kind: trace.KindState, Node: 1, Link: topology.NoLink, Channel: 1, From: trace.StateN, To: trace.StateB},
	}
	if viols := Check(other, Params{}); len(viols) != 0 {
		t.Fatalf("independent node flagged: %v", viols)
	}
}

func TestOutOfOrderTimestampsFlagged(t *testing.T) {
	events := []trace.Event{
		{At: ms(10), Kind: trace.KindLinkDown, Node: topology.NoNode, Link: 1},
		{At: ms(5), Kind: trace.KindLinkUp, Node: topology.NoNode, Link: 1},
	}
	wantRule(t, Check(events, Params{}), "order", "before predecessor")
}

func TestCheckerIsStreamingSink(t *testing.T) {
	c := New(Params{})
	var _ interface{ Emit(trace.Event) } = c
	c.Emit(trace.Event{At: 0, Kind: trace.KindClaim, Node: topology.NoNode, Link: 1, Channel: 1})
	c.Emit(trace.Event{At: 1, Kind: trace.KindClaimConvert, Node: topology.NoNode, Link: 1, Channel: 1})
	if viols := c.Finish(); len(viols) != 0 {
		t.Fatalf("streaming use flagged: %v", viols)
	}
}
