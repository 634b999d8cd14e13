package experiment

import (
	"testing"
)

// BenchmarkStormWide is the mass-failure storm kernel: the seeded cycle
// sequence on the batched dispatch engine (dispatch rounds, bulk timer
// arming, batched claim release, coalesced reconfiguration) on the paper's
// torus. The timed region is the restoration storm (CrashPhase); the repair/
// replenish half runs with the timer stopped — re-establishing the expired
// channels is establishment work and would otherwise drown the dispatch
// signal. The per-message reference engine is not benchmarked:
// TestStormWidePerMessageParity holds it to the same protocol behaviour and
// pins the allocation gap, and the end-to-end number is the storm_node_crash
// workload of the repository benchmark (bench/).
func BenchmarkStormWide(b *testing.B) {
	s, err := NewStormWide(StormWideConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(len(s.Victims)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.CrashPhase()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.RepairPhase(v); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
