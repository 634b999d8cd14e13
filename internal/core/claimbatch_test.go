package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// ClaimBatch/ReleaseClaimBatch carry one contract: bit-identical equivalence
// with the sequential per-link loop the protocol engine used before batching — same admission decisions,
// same stop-at-first-failure residue, same rejection strings out of
// ActivateClaimed. This test drives two managers through one randomized op
// stream — claims, partial releases, activations, teardowns — applying the
// per-link loop to one and the batch entry points to the other, and requires
// deep state equality after every divergence-prone step.

func requireSameClaims(t *testing.T, ctx string, ms, mb *Manager) {
	t.Helper()
	g := ms.Graph()
	for l := 0; l < g.NumLinks(); l++ {
		cs, cb := ms.plan.mux[l].claims, mb.plan.mux[l].claims
		if len(cs) != len(cb) {
			t.Fatalf("%s: link %d claim count %d vs %d", ctx, l, len(cs), len(cb))
		}
		for ch, bwS := range cs {
			bwB, ok := cb[ch]
			if !ok {
				t.Fatalf("%s: link %d claim for channel %d missing from batch manager", ctx, l, ch)
			}
			if math.Abs(bwS-bwB) > 1e-9 {
				t.Fatalf("%s: link %d claim for channel %d: %g vs %g", ctx, l, ch, bwS, bwB)
			}
		}
		if math.Abs(ms.plan.mux[l].claimed-mb.plan.mux[l].claimed) > 1e-9 {
			t.Fatalf("%s: link %d claimed total %g vs %g", ctx, l, ms.plan.mux[l].claimed, mb.plan.mux[l].claimed)
		}
	}
}

func TestClaimBatchMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := batchTopology(rng, seed)
			reqs := batchRequests(rng, g, 50, defaultBatchSpec)

			ms := NewManager(g, DefaultConfig())
			mb := NewManager(g, DefaultConfig())
			for i := range reqs {
				r := &reqs[i]
				_, errS := ms.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				_, errB := mb.Establish(r.Src, r.Dst, r.Spec, r.Degrees)
				if (errS == nil) != (errB == nil) {
					t.Fatalf("seed %d req %d: establish diverged before ops: %v vs %v", seed, i, errS, errB)
				}
			}

			// Targets are (connection, backup channel) pairs; ids and paths
			// are identical across the managers by construction.
			type target struct {
				conn rtchan.ConnID
				ch   rtchan.ChannelID
			}
			var targets []target
			for _, c := range ms.Connections() {
				for _, b := range c.Backups {
					targets = append(targets, target{c.ID, b.ID})
				}
			}
			if len(targets) == 0 {
				t.Skip("workload produced no backups")
			}

			for op := 0; op < 400; op++ {
				tg := targets[rng.Intn(len(targets))]
				cs := ms.plan.net.Channel(tg.ch)
				cb := mb.plan.net.Channel(tg.ch)
				if (cs == nil) != (cb == nil) {
					t.Fatalf("seed %d op %d: channel %d presence diverged", seed, op, tg.ch)
				}
				if cs == nil {
					continue // torn down earlier in the stream, on both
				}
				links := cs.Path.Links()
				bw := cs.Bandwidth()
				ctx := fmt.Sprintf("seed %d op %d chan %d", seed, op, tg.ch)
				switch r := rng.Intn(10); {
				case r < 4: // claim a (possibly partial) prefix of the path
					k := 1 + rng.Intn(len(links))
					si, sok := k, true
					for i, l := range links[:k] {
						if !ms.ClaimSpareFor(l, tg.ch, bw) {
							si, sok = i, false
							break
						}
					}
					bi, bok := mb.ClaimBatch(links[:k], tg.ch, bw)
					if si != bi || sok != bok {
						t.Fatalf("%s: claim (%d,%v) vs batch (%d,%v)", ctx, si, sok, bi, bok)
					}
				case r < 7: // release a (possibly partial) prefix
					k := 1 + rng.Intn(len(links))
					for _, l := range links[:k] {
						ms.ReleaseClaimFor(l, tg.ch)
					}
					mb.ReleaseClaimBatch(links[:k], tg.ch)
				case r < 9: // promote: exercises claimBatch + pooled touched scratch
					errS := ms.ActivateClaimed(tg.conn, cs)
					errB := mb.ActivateClaimed(tg.conn, cb)
					if (errS == nil) != (errB == nil) {
						t.Fatalf("%s: activate %v vs %v", ctx, errS, errB)
					}
					if errS != nil && errS.Error() != errB.Error() {
						t.Fatalf("%s: rejection %q vs %q", ctx, errS, errB)
					}
				default: // teardown: exercises the pooled scratch's other user
					errS := ms.TeardownChannel(tg.conn, tg.ch)
					errB := mb.TeardownChannel(tg.conn, tg.ch)
					if (errS == nil) != (errB == nil) {
						t.Fatalf("%s: teardown %v vs %v", ctx, errS, errB)
					}
				}
				requireSameClaims(t, ctx, ms, mb)
			}

			if os, ob := ms.OutstandingClaims(), mb.OutstandingClaims(); os != ob {
				t.Fatalf("seed %d: outstanding claims %d vs %d", seed, os, ob)
			}
			requireSameManagers(t, fmt.Sprintf("seed%d", seed), ms, mb)
		})
	}
}

// TestClaimBatchResidue pins the documented stop-at-first-failure semantics:
// a failed batch leaves exactly the claims made before the failing link, and
// a follow-up ReleaseClaimBatch over the same slice clears them all.
func TestClaimBatchResidue(t *testing.T) {
	g := topology.NewTorus(4, 4, 2) // tight links: claims exhaust spare fast
	m := NewManager(g, DefaultConfig())
	conn, err := m.Establish(0, 5, rtchan.DefaultSpec(), []int{1})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	b := conn.Backups[0]
	links := b.Path.Links()
	// Saturate the last link of the path with a foreign claim so the batch
	// fails exactly there.
	last := links[len(links)-1]
	foreign := rtchan.ChannelID(1 << 20)
	spare := m.Network().Spare(last)
	if !m.ClaimSpareFor(last, foreign, spare) {
		t.Fatalf("foreign claim of full spare %g on link %d failed", spare, last)
	}
	i, ok := m.ClaimBatch(links, b.ID, b.Bandwidth())
	if ok || i != len(links)-1 {
		t.Fatalf("batch over poisoned path: got (%d,%v), want (%d,false)", i, ok, len(links)-1)
	}
	for _, l := range links[:i] {
		if !m.ClaimedOn(l, b.ID) {
			t.Fatalf("link %d lost its pre-failure claim", l)
		}
	}
	if m.ClaimedOn(last, b.ID) {
		t.Fatal("failing link should hold no claim")
	}
	m.ReleaseClaimBatch(links, b.ID)
	m.ReleaseClaimFor(last, foreign)
	if n := m.OutstandingClaims(); n != 0 {
		t.Fatalf("outstanding claims after release: %d", n)
	}
}
