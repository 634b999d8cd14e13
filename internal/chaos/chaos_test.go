package chaos

import (
	"flag"
	"testing"

	"github.com/rtcl/bcp/internal/bcpd"
)

// The chaos model check is budget-driven: -chaos.episodes sets how many
// seeded episodes TestModelCheck runs (smoke default 40; nightly runs pass
// -chaos.episodes=1000), -chaos.seed pins the run seed for reproduction.
var (
	chaosSeed     = flag.Int64("chaos.seed", 1, "model-check run seed")
	chaosEpisodes = flag.Int("chaos.episodes", 40, "model-check episode budget")
)

// TestModelCheck is the main entrypoint: N seeded episodes across all fault
// classes, each checked by the conformance oracle, the quiescence audit, and
// the benign-liveness rule. Any failure is shrunk and reported with its
// minimal reproducer.
func TestModelCheck(t *testing.T) {
	rep, err := Run(Options{
		Seed:     *chaosSeed,
		Episodes: *chaosEpisodes,
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("episodes=%d skipped=%d conns=%d reestablished=%d events=%d digest=%s",
		rep.Episodes, rep.Skipped, rep.Conns, rep.Reestablished, rep.Events, rep.Digest)
	for _, f := range rep.Failures {
		t.Errorf("episode %d failed; shrunk to %d events (%d probe runs): %v\nreproducer spec: %+v",
			f.Episode, len(f.Shrunk.Events), f.ShrinkRuns, f.Violations, f.Shrunk)
	}
	if rep.Episodes == 0 {
		t.Fatal("no episodes ran (all schedules skipped)")
	}
}

// TestDeterminism runs the same seed twice and demands byte-identical run
// digests: the digest covers every trace event of every episode, so any
// map-order or wall-clock leak in the stack shows up here.
func TestDeterminism(t *testing.T) {
	opts := Options{Seed: *chaosSeed, Episodes: 8}
	a, err := Run(opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different digests:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if a.Events != b.Events {
		t.Fatalf("same seed, different event counts: %d vs %d", a.Events, b.Events)
	}
}

// TestSabotageCaught is the harness self-test demanded by the issue: with
// the promote-once rearm deliberately disabled (the bug fixed in the
// soft-state rejoin PR), the model check must catch the failure within the
// smoke budget and shrink it to a minimal reproducer of at most 5 fault
// events — failure, repair, second failure, second repair, re-failure; the
// final repair is subsumed by the episode's heal step.
func TestSabotageCaught(t *testing.T) {
	rep, err := Run(Options{
		Seed:        *chaosSeed,
		Episodes:    *chaosEpisodes,
		Classes:     []string{ClassPingPong, ClassFlapping},
		Sabotage:    &bcpd.Sabotage{SkipPromoteRearm: true},
		ArtifactDir: t.TempDir(),
		Log:         t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Failed() {
		t.Fatalf("sabotaged network passed %d episodes — the harness is blind", rep.Episodes)
	}
	f := rep.Failures[0]
	t.Logf("caught at episode %d; shrunk %d -> %d events in %d probe runs: %v",
		f.Episode, len(f.Original.Events), len(f.Shrunk.Events), f.ShrinkRuns, f.Violations)
	if len(f.Shrunk.Events) > 5 {
		t.Errorf("reproducer not minimal: %d events, want <= 5\n%+v",
			len(f.Shrunk.Events), f.Shrunk.Events)
	}
	if len(f.Violations) == 0 {
		t.Error("shrunk reproducer no longer fails")
	}
	// The written reproducer must replay: same digest, still failing, and
	// it carries the flight that led up to the failure.
	a, err := ReadArtifact(f.ArtifactPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(a.Flight) == 0 {
		t.Error("reproducer artifact carries no flight")
	}
	res, err := ReplayArtifact(a, RunOptions{Sabotage: &bcpd.Sabotage{SkipPromoteRearm: true}})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(res.Violations) == 0 || res.Digest != a.Digest {
		t.Errorf("reproducer replay: %d violations, digest %s, artifact records %s", len(res.Violations), res.Digest, a.Digest)
	}
	// And without the sabotage the same schedule must pass — the failure is
	// the bug's, not the schedule's.
	clean, err := RunEpisode(f.Shrunk, RunOptions{})
	if err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	if len(clean.Violations) != 0 {
		t.Errorf("reproducer fails even without sabotage: %v", clean.Violations)
	}
}

// TestGenerateClasses pins basic well-formedness of every schedule class:
// events sorted-by-construction within the horizon, targets valid, and the
// benign flag set as documented.
func TestGenerateClasses(t *testing.T) {
	for _, class := range Classes {
		class := class
		t.Run(class, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				spec, err := Generate(mix(*chaosSeed, uint64(seed)), class)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(spec.Conns) == 0 {
					continue // deterministic skip
				}
				if len(spec.Events) == 0 {
					t.Fatalf("seed %d: no fault events", seed)
				}
				if !specValidOn(spec) {
					t.Fatalf("seed %d: spec has out-of-range targets: %+v", seed, spec)
				}
				for _, ev := range spec.Events {
					if ev.AtNS >= spec.HorizonNS {
						t.Fatalf("seed %d: event %v beyond horizon %d", seed, ev, spec.HorizonNS)
					}
				}
				if class == ClassDouble && spec.Benign {
					t.Fatalf("seed %d: double-failure schedule marked benign", seed)
				}
			}
		})
	}
}
