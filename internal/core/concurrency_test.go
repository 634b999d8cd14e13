package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// loadedTorus builds a torus manager with the all-pairs workload of a small
// evaluation network (one backup at degree alpha per connection).
func loadedTorus(t *testing.T, alpha int) *Manager {
	t.Helper()
	g := topology.NewTorus(4, 4, 200)
	m := NewManager(g, DefaultConfig())
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				if _, err := m.Establish(topology.NodeID(s), topology.NodeID(d), rtchan.DefaultSpec(), []int{alpha}); err != nil {
					t.Fatalf("establish %d->%d: %v", s, d, err)
				}
			}
		}
	}
	return m
}

// TestTrialHoldersSeeEveryWriter pins the snapshot's epoch check: after any
// write transaction, a view that trialed before it must return what a fresh
// view returns. Each writer below is chosen
// to change some trial of the sweep, which is asserted, so a holder that kept
// its old snapshot fails here.
func TestTrialHoldersSeeEveryWriter(t *testing.T) {
	m := loadedTorus(t, 3)
	g := m.Graph()
	var failures []Failure
	for _, l := range g.Links() {
		failures = append(failures, SingleLink(l.ID))
	}
	for n := 0; n < g.NumNodes(); n++ {
		failures = append(failures, SingleNode(topology.NodeID(n)))
	}
	sweep := func(trial func(Failure, ActivationOrder, *rand.Rand) RecoveryStats) []RecoveryStats {
		out := make([]RecoveryStats, len(failures))
		for i, f := range failures {
			out[i] = trial(f, OrderByConn, nil)
		}
		return out
	}
	// fullClaim is a claim of everything link l has left: any activation
	// across l now fails.
	fullClaim := func(l topology.LinkID) float64 { return m.plan.available(l) }
	// backed returns the first live connection from the i-th on that still
	// has a backup: earlier writes may have promoted or dropped some.
	backed := func(i int) *DConnection {
		for _, c := range m.Connections()[i:] {
			if c.Primary != nil && len(c.Backups) > 0 {
				return c
			}
		}
		t.Fatalf("no connection from the %d-th on has a backup", i)
		return nil
	}
	var (
		oldPrimary *rtchan.Channel
		claimLinks []topology.LinkID
		claimer    *rtchan.Channel
	)
	conns := m.Connections()
	victim, spare := conns[7].ID, conns[40]
	var promoted, activated rtchan.ConnID

	view := m.NewTrialView()
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"Establish", func() error {
			_, err := m.Establish(0, 10, rtchan.DefaultSpec(), []int{2})
			return err
		}},
		{"Teardown", func() error { return m.Teardown(victim) }},
		{"recoverByClaims", func() error {
			recoverByClaims(t, m, SingleLink(spare.Primary.Path.Links()[0]), deadFirst)
			promoted = spare.ID
			return nil
		}},
		{"ReplenishBackups", func() error {
			if n, err := m.ReplenishBackups(promoted, 1, 3, nil); err != nil || n != 1 {
				return fmt.Errorf("replenished %d: %v", n, err)
			}
			return nil
		}},
		{"ClaimBatch", func() error {
			claimer = backed(3).Backups[0]
			claimLinks = claimer.Path.Links()
			bw := fullClaim(claimLinks[0])
			for _, l := range claimLinks {
				bw = min(bw, fullClaim(l))
			}
			if _, ok := m.ClaimBatch(claimLinks, claimer.ID, bw); !ok {
				return fmt.Errorf("claim batch refused")
			}
			return nil
		}},
		{"ReleaseClaimBatch", func() error {
			m.ReleaseClaimBatch(claimLinks, claimer.ID)
			return nil
		}},
		{"ClaimSpareFor", func() error {
			if _, ok := m.ClaimSpareFor(claimLinks[0], claimer.ID, fullClaim(claimLinks[0]), false); !ok {
				return fmt.Errorf("claim refused")
			}
			return nil
		}},
		{"ReleaseClaimBatch of one link", func() error {
			m.ReleaseClaimBatch(claimLinks[:1], claimer.ID)
			return nil
		}},
		{"ActivateClaimed", func() error {
			c := backed(21)
			activated, oldPrimary = c.ID, c.Primary
			return m.ActivateClaimed(activated, c.Backups[0])
		}},
		{"RestoreAsBackup", func() error { return m.RestoreAsBackup(activated, oldPrimary.ID, 3) }},
		{"TeardownChannel", func() error {
			c := backed(30)
			return m.TeardownChannel(c.ID, c.Backups[0].ID)
		}},
	} {
		before := sweep(view.Trial)
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := sweep(m.NewTrialView().Trial)
		if reflect.DeepEqual(want, before) {
			t.Fatalf("%s: no trial of the sweep changed, so a stale snapshot would pass", w.name)
		}
		if got := sweep(view.Trial); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the view that trialed before the write differs from a fresh one", w.name)
		}
	}
	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolsViewMatchesTrial holds the pools view to the walk it shares with
// a plain view, with no reference evaluator: handed each link's own
// available spare as its pool, the view must return the plain view's
// statistics exactly, for every single-component failure of the loaded
// evaluation torus under every activation order; handed empty pools, the
// same walk must find the same failures and recover none of them.
func TestPoolsViewMatchesTrial(t *testing.T) {
	m := loadedEvalTorus(64 * 63)
	g := m.Graph()
	own := make([]float64, g.NumLinks())
	for l := range own {
		own[l] = m.plan.available(topology.LinkID(l))
	}
	plain := m.NewTrialView()
	same := m.NewTrialViewWithPools(own)
	empty := m.NewTrialViewWithPools(make([]float64, g.NumLinks()))

	var failures []Failure
	for _, l := range g.Links() {
		failures = append(failures, SingleLink(l.ID))
	}
	for n := 0; n < g.NumNodes(); n++ {
		failures = append(failures, SingleNode(topology.NodeID(n)))
	}
	recovered := 0
	for _, order := range []ActivationOrder{OrderByConn, OrderByPriority, OrderRandom} {
		for i, f := range failures {
			want := plain.Trial(f, order, rand.New(rand.NewSource(int64(i))))
			got := same.Trial(f, order, rand.New(rand.NewSource(int64(i))))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("order %v failure %d: own-spare pools %+v, plain view %+v", order, i, got, want)
			}
			recovered += want.FastRecovered
			none := empty.Trial(f, order, rand.New(rand.NewSource(int64(i))))
			if none.FailedPrimaries != want.FailedPrimaries || none.FailedBackups != want.FailedBackups ||
				none.ExcludedConns != want.ExcludedConns || none.BackupDead != want.BackupDead {
				t.Fatalf("order %v failure %d: empty pools found %+v, plain view %+v", order, i, none, want)
			}
			if none.FastRecovered != 0 || none.MuxFailed != want.FastRecovered+want.MuxFailed {
				t.Fatalf("order %v failure %d: empty pools recovered %d, refused %d of %d", order, i,
					none.FastRecovered, none.MuxFailed, want.FastRecovered+want.MuxFailed)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no trial recovered anything: the comparison is vacuous")
	}
}

// TestConcurrentTrialsDuringWrites is the race property test for the
// single-writer boundary: many goroutines run read-only trials through
// per-goroutine TrialViews, one of them in priority order, while the test
// goroutine, the one writer, churns the plan with Establish/Teardown, the
// protocol-plane claim calls and recoveries through them (recoverByClaims),
// each recovery held to a trial run just before it. Run under
// `go test -race`; the test then asserts the mux engine's invariants and
// that the plan epoch advanced once per write transaction.
func TestConcurrentTrialsDuringWrites(t *testing.T) {
	m := loadedTorus(t, 3)
	g := m.Graph()

	failures := make([]Failure, 0, g.NumLinks()+g.NumNodes())
	for _, l := range g.Links() {
		failures = append(failures, SingleLink(l.ID))
	}
	for n := 0; n < g.NumNodes(); n++ {
		failures = append(failures, SingleNode(topology.NodeID(n)))
	}

	const (
		readers   = 8
		writerOps = 40
	)
	startEpoch := m.PlanEpoch()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			v := m.NewTrialView()
			for pass := 0; pass < 6; pass++ {
				for i := r; i < len(failures); i += 2 {
					s := v.Trial(failures[i], OrderByConn, nil)
					// Sanity under churn: counters stay consistent even
					// though the observed plan differs between trials.
					if s.FastRecovered+s.MuxFailed+s.BackupDead > s.FailedPrimaries {
						t.Errorf("trial outcome counts exceed failed primaries: %+v", s)
						return
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		v := m.NewTrialView()
		for pass := 0; pass < 6; pass++ {
			for _, f := range failures {
				if s := v.Trial(f, OrderByPriority, nil); s.FastRecovered+s.MuxFailed+s.BackupDead > s.FailedPrimaries {
					t.Errorf("priority trial outcome counts exceed failed primaries: %+v", s)
					return
				}
			}
		}
	}()

	// A failed check stops the writer; the readers are waited for either way.
	defer wg.Wait()
	writes := 0
	v := m.NewTrialView()
	for i := 0; i < writerOps; i++ {
		if i%8 == 7 {
			f := failures[(i*7)%len(failures)]
			want := v.Trial(f, OrderByConn, nil) // no other writer: the plan cannot move in between
			winners, txns := recoverByClaims(t, m, f, deadFirst)
			writes += txns
			if len(winners) != want.FastRecovered {
				t.Fatalf("recovery activated %d backups, trial %+v", len(winners), want)
			}
		}
		src := topology.NodeID(i % g.NumNodes())
		dst := topology.NodeID((i + 5) % g.NumNodes())
		conn, err := m.Establish(src, dst, rtchan.DefaultSpec(), []int{2})
		writes++
		if err != nil {
			continue // transient capacity exhaustion is fine here
		}
		if len(conn.Backups) > 0 {
			b := conn.Backups[0]
			l := b.Path.Links()[0]
			if _, ok := m.ClaimSpareFor(l, b.ID, b.Bandwidth(), false); ok {
				m.ReleaseClaimBatch([]topology.LinkID{l}, b.ID)
				writes += 2
			} else {
				writes++
			}
		}
		if err := m.Teardown(conn.ID); err != nil {
			t.Fatalf("teardown %d: %v", conn.ID, err)
		}
		writes++
	}
	wg.Wait()

	if err := m.CheckMuxInvariants(); err != nil {
		t.Fatalf("invariants after concurrent churn: %v", err)
	}
	if got := m.PlanEpoch(); got != startEpoch+uint64(writes) {
		t.Fatalf("plan epoch advanced by %d, want %d (one per write transaction)", got-startEpoch, writes)
	}
}
