package bcpd

import (
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
)

// The tests below call checkSoft without the rest of CheckQuiescence: its
// bookkeeping rules hold at any point between events, and its census against
// the registry whenever no channel has been dropped with hops still live.

// TestSoftRecordLifetime walks one channel's record through its life: seeded
// with every hop live, one hop wiped by a reboot with its arm cancelled, the
// rest expiring one by one, and the record freed — and recycled — with the
// last of them.
func TestSoftRecordLifetime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(300 * time.Millisecond)
	tb := newTestbed(t, cfg)
	n := tb.net
	back := tb.conn.Backups[0] // 0-3-4-5-2
	r := n.soft.tab.Get(back.ID)
	if r == nil || r.ch != back || int(r.live) != len(back.Path.Nodes()) || len(r.hops) != int(r.live) {
		t.Fatalf("backup's record after install: %+v", r)
	}
	if n.soft.tab.Len() != tb.mgr.Network().NumChannels() {
		t.Fatalf("%d records for %d channels", n.soft.tab.Len(), tb.mgr.Network().NumChannels())
	}

	// Crash node 4: its neighbours 3 and 5 report, every surviving hop goes
	// to U and arms a rejoin timer.
	n.FailNode(4)
	tb.eng.RunFor(50 * time.Millisecond)
	for i, v := range back.Path.Nodes() {
		want := stateU
		if v == 4 {
			want = stateB // a dead daemon's slot waits for the reboot's wipe
		}
		if got := n.nodes[v].State(back.ID); got != want {
			t.Fatalf("node %d (hop %d) after the crash: state %v, want %v", v, i, got, want)
		}
		if armed := r.hops[i].arm != 0; armed != (v != 4) {
			t.Fatalf("node %d (hop %d) after the crash: armed = %v", v, i, armed)
		}
	}
	if q := n.checkSoft(nil); len(q) != 0 {
		t.Fatalf("audit after the crash: %v", q)
	}

	// The reboot wipes hop 2 and only hop 2; the record lives on.
	n.RepairNode(4)
	if got := n.nodes[4].State(back.ID); got != stateN {
		t.Fatalf("node 4 after its reboot: state %v, want N", got)
	}
	if r.live != 4 || n.soft.tab.Get(back.ID) != r {
		t.Fatalf("record after the reboot: live %d, filed %v", r.live, n.soft.tab.Get(back.ID) == r)
	}
	if q := n.checkSoft(nil); len(q) != 0 {
		t.Fatalf("audit after the reboot: %v", q)
	}

	// The timers expire, the channel is torn down, the record goes with its
	// last hop and leaves nothing behind: no slab entry, no table entry.
	tb.eng.RunFor(time.Second)
	if got := n.soft.tab.Get(back.ID); got != nil {
		t.Fatalf("record survives its last hop: %+v", got)
	}
	if r.ch != nil || r.live != 0 || r.promoted || r.retired || r.probe != nil {
		t.Fatalf("freed record not reset: %+v", r)
	}
	if used := len(n.soft.arms) - len(n.soft.armFree); used != 0 {
		t.Fatalf("%d arm slab entries still in use", used)
	}
	if q := n.checkSoft(nil); len(q) != 0 {
		t.Fatalf("audit after expiry: %v", q)
	}

	// The next channel of the same length reuses the record and its slots.
	conn, err := tb.mgr.Establish(0, 2, tb.conn.Spec, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	n.installConnection(conn)
	reused := false
	for _, ch := range append([]*rtchan.Channel{conn.Primary}, conn.Backups...) {
		reused = reused || n.soft.tab.Get(ch.ID) == r
	}
	if !reused {
		t.Fatalf("no channel of the new connection (%d and %d hops) took the freed 5-node record", conn.Primary.Path.Hops(), conn.Backups[0].Path.Hops())
	}
}

// TestSoftRecordDoesNotMakeChannelKnown pins the rule daemon.at keeps from
// the maps: a record that outlives the registry entry answers for the
// channel only if TeardownConnection retired it, and a retired record is
// gone once its last hop is.
func TestSoftRecordDoesNotMakeChannelKnown(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	n := tb.net
	back := tb.conn.Backups[0]
	if err := tb.mgr.TeardownChannel(tb.conn.ID, back.ID); err != nil {
		t.Fatal(err)
	}
	ch, r, i := n.nodes[3].at(back.ID)
	if ch != nil || r == nil || r.state(i) != stateB {
		t.Fatalf("dropped channel at node 3: channel %v, record %v", ch, r)
	}
	if got := n.connOf(back.ID); got != 0 {
		t.Fatalf("connOf a dropped channel = %d, want 0", got)
	}
	// A stale rejoin for it dies at a node in N instead of raising closures.
	n.nodes[4].setState(r, 2, stateN)
	before := n.Stats().Closures
	n.nodes[4].handleControl(wireControl{Type: 4 /* MsgRejoin */, Channel: int64(back.ID), Origin: 2, Toward: -1})
	if got := n.Stats().Closures; got != before {
		t.Fatalf("rejoin for a dropped channel raised %d closures", got-before)
	}

	tb = newTestbed(t, DefaultConfig())
	n = tb.net
	prim := tb.conn.Primary
	back = tb.conn.Backups[0]
	if err := n.TeardownConnection(tb.conn.ID); err != nil {
		t.Fatal(err)
	}
	if ch, _, _ := n.nodes[1].at(prim.ID); ch != prim || n.connOf(prim.ID) != tb.conn.ID {
		t.Fatalf("retired primary at node 1: channel %v, conn %d", ch, n.connOf(prim.ID))
	}
	tb.eng.RunFor(200 * time.Millisecond)
	for _, id := range []rtchan.ChannelID{prim.ID, back.ID} {
		if r := n.soft.tab.Get(id); r != nil {
			t.Fatalf("channel %d: record outlives the closure: %+v", id, r)
		}
	}
	if q := n.CheckQuiescence(); len(q) != 0 {
		t.Fatalf("quiescence after teardown: %v", q)
	}
}

// TestSoftAuditCatchesCorruption corrupts a record each way checkSoft claims
// to notice and checks it does.
func TestSoftAuditCatchesCorruption(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(n *Network, r *chanSoft)
		want    string
	}{
		{"live count", func(_ *Network, r *chanSoft) { r.live-- }, "live hops"},
		{"state in N", func(_ *Network, r *chanSoft) { r.hops[1] = hopSlot{failed: true}; r.live-- }, "in N but holds state"},
		{"dangling handle", func(_ *Network, r *chanSoft) { r.hops[0].arm = 7 }, "dangles"},
		{"staged handle outside a round", func(_ *Network, r *chanSoft) { r.hops[0].arm = -1 }, "dangles"},
		{"leaked slab entry", func(n *Network, _ *chanSoft) { n.putArm(&hopSlot{}, rejoinRef{}) }, "slab entries in use"},
		{"slot count", func(_ *Network, r *chanSoft) { r.hops = r.hops[:2]; r.live = 2 }, "path nodes"},
		{"empty record", func(n *Network, r *chanSoft) {
			for i, v := range r.ch.Path.Nodes() {
				n.nodes[v].setHop(r, i, stateN)
			}
		}, "live hops"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbed(t, DefaultConfig())
			if q := tb.net.checkSoft(nil); len(q) != 0 {
				t.Fatalf("audit of a fresh network: %v", q)
			}
			c.corrupt(tb.net.Network, tb.net.soft.tab.Get(tb.conn.Primary.ID))
			q := tb.net.checkSoft(nil)
			if !strings.Contains(strings.Join(q, "\n"), c.want) {
				t.Fatalf("audit %q does not mention %q", q, c.want)
			}
		})
	}
}
