package experiment

import (
	"slices"
	"testing"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/trace"
)

// TestRecoveriesMatchDataPlane holds trace.Recoveries, which reads only the
// event stream, to what the data plane itself logged: the source's switch
// times and the destination's arrival times.
func TestRecoveriesMatchDataPlane(t *testing.T) {
	// Mass failures: per cycle, every sampled source that switched has one
	// recovery, Γ to its last switch and the disruption to the first arrival
	// after it.
	t.Run("storm", func(t *testing.T) {
		const cycles = 64
		recs := &trace.Recoveries{}
		s, err := NewStormWide(StormWideConfig{Seed: 1, Sink: recs})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[rtchan.ConnID]int)
		for i := 0; i < cycles; i++ {
			crashAt, done := s.Eng.Now(), len(recs.Done)
			v, err := s.CrashPhase()
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[rtchan.ConnID][2]sim.Duration)
			for _, c := range s.traffic {
				sw := s.Net.SourceSwitches(c.ID)
				if len(sw) == seen[c.ID] {
					continue
				}
				seen[c.ID] = len(sw)
				last := sw[len(sw)-1]
				arr := s.Net.SinkArrivals(c.ID)
				if j, _ := slices.BinarySearch(arr, last); j < len(arr) {
					want[c.ID] = [2]sim.Duration{last.Sub(crashAt), arr[j].Sub(crashAt)}
				}
			}
			got := recs.Done[done:]
			if len(got) != len(want) {
				t.Fatalf("cycle %d: %d recoveries closed, data plane shows %d", i, len(got), len(want))
			}
			for _, r := range got {
				if w := want[r.Conn]; r.Gamma() != w[0] || r.Disruption() != w[1] {
					t.Errorf("cycle %d connection %d: Γ %v disruption %v, data plane %v %v",
						i, r.Conn, r.Gamma(), r.Disruption(), w[0], w[1])
				}
			}
			if err := s.RepairPhase(v); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%d recoveries over %d cycles match the data plane", len(recs.Done), cycles)
	})

	// The §5 rows: Γ is the table's gamma column, and data resumes only
	// after it could have crossed the backup, so a message still in flight
	// on the failed primary's healthy tail does not count as the resume.
	t.Run("section5", func(t *testing.T) {
		opts, cfg := DefaultOptions(), protocolTimingConfig()
		for _, row := range RunSection5(opts).Rows {
			s := section5Scenario(opts, cfg, row.Backups, row.FailPos, row.BackupHit)
			run, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			run.Run()
			recs, sw := run.Net.Checker.Recoveries(), run.Net.SourceSwitches(run.Conn.ID)
			if len(recs) != 1 || len(sw) == 0 {
				t.Fatalf("link %d, %d backups: %d recoveries, %d switches", row.FailPos, row.Backups, len(recs), len(sw))
			}
			r := recs[0]
			if g := sw[len(sw)-1].Sub(s.FailAt); r.Gamma() != g || r.Gamma() != row.Gamma {
				t.Errorf("link %d, %d backups: Γ %v, last switch %v, table %v", row.FailPos, row.Backups, r.Gamma(), g, row.Gamma)
			}
			crossing := sim.Duration(run.Conn.Primary.Path.Hops()) * cfg.PropDelay
			if r.Disruption()-r.Gamma() < crossing {
				t.Errorf("link %d, %d backups: data resumed %v after the switch, before it could cross the %v backup",
					row.FailPos, row.Backups, r.Disruption()-r.Gamma(), crossing)
			}
		}
	})
}
