package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Coalesced reconfiguration (reconfig.go) claims exact equivalence with the
// eager always-rebuild path: skipping recomputeLinkMux on links whose pair
// inputs are unchanged must never alter an admission decision, a spare
// reservation, or a requirement. This test drives twin managers — one eager,
// one coalesced — through randomized protocol histories (establishment with
// mixed degrees, spare claims with preemption, activations/promotions,
// teardowns, rejoin demotions, replenishment) and demands equal state after
// every operation.
//
// Π sets are compared as sets of channel ids, decoded from each link's bit
// matrix and sorted: the contract is the relation, not its layout. Everything
// else — spare, claimed, claims, requirements, entry order, connection
// structure, error outcomes — must match exactly, which the integer-valued
// bandwidths of defaultBatchSpec make a bit-identity check, not a tolerance
// check.

// requireEquivalentMux is requireSameManagers' mux leg with Π compared as
// sets (me eager, mc coalesced).
func requireEquivalentMux(t *testing.T, ctx string, me, mc *Manager) {
	t.Helper()
	g := me.Graph()
	for l := 0; l < g.NumLinks(); l++ {
		ll := topology.LinkID(l)
		if se, sc := me.plan.net.Spare(ll), mc.plan.net.Spare(ll); se != sc {
			t.Fatalf("%s: link %d spare %g vs %g", ctx, l, se, sc)
		}
		if de, dc := me.plan.net.Dedicated(ll), mc.plan.net.Dedicated(ll); de != dc {
			t.Fatalf("%s: link %d dedicated %g vs %g", ctx, l, de, dc)
		}
		lme, lmc := &me.plan.mux[l], &mc.plan.mux[l]
		if lme.claimed != lmc.claimed {
			t.Fatalf("%s: link %d claimed %g vs %g", ctx, l, lme.claimed, lmc.claimed)
		}
		if re, rc := lme.requiredSpare(), lmc.requiredSpare(); re != rc {
			t.Fatalf("%s: link %d required spare %g vs %g", ctx, l, re, rc)
		}
		if len(lme.claims) != len(lmc.claims) {
			t.Fatalf("%s: link %d claim count %d vs %d", ctx, l, len(lme.claims), len(lmc.claims))
		}
		for ch, bwE := range lme.claims {
			if bwC, ok := lmc.claims[ch]; !ok || bwE != bwC {
				t.Fatalf("%s: link %d claim %d: %g vs %g (present=%v)", ctx, l, ch, bwE, bwC, ok)
			}
		}
		if len(lme.entries) != len(lmc.entries) {
			t.Fatalf("%s: link %d entry count %d vs %d", ctx, l, len(lme.entries), len(lmc.entries))
		}
		for i := range lme.entries {
			ee, ec := &lme.entries[i], &lmc.entries[i]
			if nue, nuc := me.plan.thr.nus[ee.cls], mc.plan.thr.nus[ec.cls]; ee.id != ec.id || nue != nuc {
				t.Fatalf("%s: link %d entry %d: chan %d/ν%g vs chan %d/ν%g",
					ctx, l, i, ee.id, nue, ec.id, nuc)
			}
			if ee.req != ec.req {
				t.Fatalf("%s: link %d entry %d (chan %d) req %g vs %g", ctx, l, i, ee.id, ee.req, ec.req)
			}
			pe, pc := lme.piIDs(i), lmc.piIDs(i)
			sort.Slice(pe, func(a, b int) bool { return pe[a] < pe[b] })
			sort.Slice(pc, func(a, b int) bool { return pc[a] < pc[b] })
			if len(pe) != len(pc) {
				t.Fatalf("%s: link %d entry %d (chan %d) Π size %d vs %d", ctx, l, i, ee.id, len(pe), len(pc))
			}
			for j := range pe {
				if pe[j] != pc[j] {
					t.Fatalf("%s: link %d entry %d (chan %d) Π member %d vs %d",
						ctx, l, i, ee.id, pe[j], pc[j])
				}
			}
		}
	}
}

func requireEquivalentConns(t *testing.T, ctx string, ids []rtchan.ConnID, me, mc *Manager) {
	t.Helper()
	for _, id := range ids {
		ce, cc := me.Connection(id), mc.Connection(id)
		if (ce == nil) != (cc == nil) {
			t.Fatalf("%s: conn %d presence %v vs %v", ctx, id, ce != nil, cc != nil)
		}
		if ce == nil {
			continue
		}
		requireSameChannel(t, ctx, ce.Primary, cc.Primary)
		if len(ce.Backups) != len(cc.Backups) {
			t.Fatalf("%s: conn %d backups %d vs %d", ctx, id, len(ce.Backups), len(cc.Backups))
		}
		for i := range ce.Backups {
			requireSameChannel(t, ctx, ce.Backups[i], cc.Backups[i])
			if ce.Degrees[i] != cc.Degrees[i] {
				t.Fatalf("%s: conn %d degree[%d] %d vs %d", ctx, id, i, ce.Degrees[i], cc.Degrees[i])
			}
		}
	}
}

func sameErr(t *testing.T, ctx string, errE, errC error) {
	t.Helper()
	if (errE == nil) != (errC == nil) {
		t.Fatalf("%s: outcome diverged: %v vs %v", ctx, errE, errC)
	}
	if errE != nil && errE.Error() != errC.Error() {
		t.Fatalf("%s: error text diverged: %q vs %q", ctx, errE, errC)
	}
}

func TestCoalescedReconfigEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := batchTopology(rng, seed)
			reqs := batchRequests(rng, g, 40, defaultBatchSpec)

			me := NewManager(g, DefaultConfig()) // eager reference
			mc := NewManager(g, DefaultConfig())
			mc.SetCoalescedReconfig(true)

			var ids []rtchan.ConnID
			for i := range reqs {
				r := &reqs[i]
				ce, errE := me.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				cc, errC := mc.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				sameErr(t, fmt.Sprintf("establish %d", i), errE, errC)
				if errE != nil {
					continue
				}
				if ce.ID != cc.ID {
					t.Fatalf("establish %d: conn id %d vs %d", i, ce.ID, cc.ID)
				}
				ids = append(ids, ce.ID)
			}
			if len(ids) == 0 {
				t.Skip("tight topology rejected every request")
			}

			// check compares the two managers' full state. The invariant
			// audit is itself part of the equivalence contract: both engines
			// must return the SAME audit result. It is not required to be
			// nil mid-history — batchTopology is deliberately tight, and
			// reconfigureLinks caps a pool at link headroom rather than
			// failing recovery, so a successful activation can leave spare
			// below requirement on a capacity-exhausted link. That state is
			// reachable by design; what coalescing must preserve is that
			// both engines reach bit-identically the same one.
			check := func(ctx string) {
				t.Helper()
				requireEquivalentConns(t, ctx, ids, me, mc)
				requireEquivalentMux(t, ctx, me, mc)
				sameErr(t, ctx+" invariants", me.CheckMuxInvariants(), mc.CheckMuxInvariants())
			}
			check("after establishment")
			if err := me.CheckMuxInvariants(); err != nil {
				t.Fatalf("invariants after establishment: %v", err)
			}

			noAvoid := func(topology.LinkID) bool { return false }
			for op := 0; op < 250; op++ {
				id := ids[rng.Intn(len(ids))]
				ce, cc := me.Connection(id), mc.Connection(id)
				if (ce == nil) != (cc == nil) {
					t.Fatalf("op %d: conn %d presence diverged", op, id)
				}
				if ce == nil {
					continue
				}
				ctx := fmt.Sprintf("op %d conn %d", op, id)
				switch rng.Intn(5) {
				case 0, 1: // fail over: lose the primary, claim a backup's links, activate or abandon
					if len(ce.Backups) == 0 {
						continue
					}
					// Activation is only a legal history after the primary is
					// gone (its dedicated bandwidth funds the promotion's pool
					// shrink; with a live primary the link can run out of
					// capacity and the spare invariant fails on both engines).
					if ce.Primary != nil {
						sameErr(t, ctx+" drop primary",
							me.TeardownChannel(id, ce.Primary.ID),
							mc.TeardownChannel(id, cc.Primary.ID))
					}
					bi := rng.Intn(len(ce.Backups))
					be, bc := ce.Backups[bi], cc.Backups[bi]
					bw := be.Bandwidth()
					claimed := true
					links := be.Path.Links()
					var got []topology.LinkID
					for _, l := range links {
						ve, okE := me.ClaimSpareFor(l, be.ID, bw, true)
						vc, okC := mc.ClaimSpareFor(l, bc.ID, bw, true)
						if okE != okC || ve != vc {
							t.Fatalf("%s: claim on link %d diverged: (%d,%v) vs (%d,%v)",
								ctx, l, ve, okE, vc, okC)
						}
						if !okE {
							claimed = false
							break
						}
						got = append(got, l)
					}
					if claimed && rng.Intn(4) != 0 {
						sameErr(t, ctx+" activate", me.ActivateClaimed(id, be), mc.ActivateClaimed(id, bc))
					} else {
						me.ReleaseClaimBatch(got, be.ID)
						mc.ReleaseClaimBatch(got, bc.ID)
					}
				case 2: // tear down a channel (primary half the time)
					var ch rtchan.ChannelID
					if ce.Primary != nil && (len(ce.Backups) == 0 || rng.Intn(2) == 0) {
						ch = ce.Primary.ID
					} else if len(ce.Backups) > 0 {
						ch = ce.Backups[rng.Intn(len(ce.Backups))].ID
					} else {
						continue
					}
					sameErr(t, ctx+" teardown", me.TeardownChannel(id, ch), mc.TeardownChannel(id, ch))
				case 3: // demote the primary back to a backup (rejoin, Figure 6)
					if ce.Primary == nil {
						continue
					}
					alpha := 1 + rng.Intn(3)
					sameErr(t, ctx+" restore",
						me.RestoreAsBackup(id, ce.Primary.ID, alpha),
						mc.RestoreAsBackup(id, cc.Primary.ID, alpha))
				default: // replenish the backup population
					target := 1 + rng.Intn(2)
					alpha := 1 + rng.Intn(3)
					ae, errE := me.ReplenishBackups(id, target, alpha, noAvoid)
					ac, errC := mc.ReplenishBackups(id, target, alpha, noAvoid)
					sameErr(t, ctx+" replenish", errE, errC)
					if ae != ac {
						t.Fatalf("%s: replenish added %d vs %d", ctx, ae, ac)
					}
				}
				check(ctx)
			}
		})
	}
}
