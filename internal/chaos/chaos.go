package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"github.com/rtcl/bcp/internal/bcpd"
)

// Options configure a model-check run.
type Options struct {
	// Seed drives everything: schedule generation, packet chaos, and the
	// engine's event interleaving. Same seed, same binary ⇒ byte-identical
	// episode digests.
	Seed int64
	// Episodes is the number of seeded episodes to run (default 100).
	Episodes int
	// Classes restricts the fault-schedule classes exercised (default: all).
	Classes []string
	// Sabotage re-introduces a known-fixed bug in every episode — the
	// harness self-test: the run must catch and shrink it.
	Sabotage *bcpd.Sabotage
	// ArtifactDir, when non-empty, receives one JSON reproducer per
	// failing episode.
	ArtifactDir string
	// MaxFailures stops the run early after this many failing episodes
	// (default 1 — the first minimal reproducer is usually what you want).
	// Negative means never stop early.
	MaxFailures int
	// FrameTap observes wire frames from every episode (fuzz harvesting).
	// The buffer is pooled; the tap must copy.
	FrameTap func([]byte)
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Failure is one failing episode, minimized.
type Failure struct {
	// Episode is the failing episode's index in the run.
	Episode int
	// Original is the generated spec that failed; Shrunk is its minimal
	// reproducer (equal to Original if shrinking could not reduce it).
	Original, Shrunk Spec
	// Violations observed when Shrunk ran.
	Violations []string
	// ShrinkRuns counts probe episodes the shrinker spent.
	ShrinkRuns int
	// ArtifactPath is where the reproducer was written ("" if no dir).
	ArtifactPath string
}

// Report summarizes a model-check run.
type Report struct {
	Episodes int
	// Skipped counts seeds whose generated schedule could not establish
	// any connection (counted, never silently folded into Episodes).
	Skipped int
	// Digest is the SHA-256 over all episode digests in order — one hash
	// that witnesses determinism for the whole run.
	Digest string
	// Reestablished / Conns aggregate the liveness outcome.
	Conns, Reestablished int
	// Events totals trace events checked across the run.
	Events   int
	Failures []Failure
}

// Failed reports whether any episode failed.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// Run executes the model check: generate a spec per episode, run it under
// the hostile transport, check conformance + quiescence + liveness, and
// shrink every failure to a minimal replayable reproducer.
func Run(opts Options) (*Report, error) {
	if opts.Episodes <= 0 {
		opts.Episodes = 100
	}
	if opts.MaxFailures == 0 {
		opts.MaxFailures = 1
	}
	classes := opts.Classes
	if len(classes) == 0 {
		classes = Classes
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	runOpts := RunOptions{Sabotage: opts.Sabotage, FrameTap: opts.FrameTap}

	rep := &Report{}
	runHash := sha256.New()
	for i := 0; i < opts.Episodes; i++ {
		class := classes[i%len(classes)]
		epSeed := mix(opts.Seed, uint64(i)*0x9e3779b97f4a7c15+1)
		spec, err := Generate(epSeed, class)
		if err != nil {
			return rep, fmt.Errorf("chaos: episode %d (%s): %w", i, class, err)
		}
		if len(spec.Conns) == 0 {
			rep.Skipped++
			continue
		}
		res, err := RunEpisode(spec, runOpts)
		if err != nil {
			return rep, fmt.Errorf("chaos: episode %d (%s): %w", i, class, err)
		}
		rep.Episodes++
		rep.Conns += res.Conns
		rep.Reestablished += res.Reestablished
		rep.Events += res.Events
		fmt.Fprintf(runHash, "%d %s\n", i, res.Digest)

		if len(res.Violations) == 0 {
			continue
		}
		logf("episode %d (%s, seed %d): %d violation(s); shrinking (%d events)...",
			i, class, epSeed, len(res.Violations), len(spec.Events))
		sh := &Shrinker{Opts: runOpts}
		shrunk := sh.Shrink(spec)
		sres, err := RunEpisode(shrunk, runOpts)
		if err != nil {
			return rep, fmt.Errorf("chaos: episode %d shrink replay: %w", i, err)
		}
		f := Failure{
			Episode:    i,
			Original:   spec,
			Shrunk:     shrunk,
			Violations: sres.Violations,
			ShrinkRuns: sh.Runs(),
		}
		logf("episode %d: shrunk %d -> %d events in %d probe runs",
			i, len(spec.Events), len(shrunk.Events), sh.Runs())
		if opts.ArtifactDir != "" {
			path := filepath.Join(opts.ArtifactDir,
				fmt.Sprintf("chaos-seed%d-ep%d.json", opts.Seed, i))
			a := Artifact{
				Spec:       shrunk,
				Violations: sres.Violations,
				Digest:     sres.Digest,
				Flight:     sres.Flight,
				Note: fmt.Sprintf("shrunk from %s schedule, run seed %d episode %d, %d probe runs",
					class, opts.Seed, i, sh.Runs()),
			}
			if err := WriteArtifact(path, a); err != nil {
				return rep, err
			}
			f.ArtifactPath = path
			logf("episode %d: reproducer written to %s", i, path)
		}
		rep.Failures = append(rep.Failures, f)
		if opts.MaxFailures > 0 && len(rep.Failures) >= opts.MaxFailures {
			break
		}
	}
	rep.Digest = hex.EncodeToString(runHash.Sum(nil))
	return rep, nil
}
