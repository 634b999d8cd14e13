// Command bcpchaos runs the adversarial model check: seeded episodes of
// fault schedules under a hostile transport, each checked against the
// conformance oracle plus quiescence and liveness invariants, with failing
// schedules shrunk to minimal replayable reproducers.
//
// Usage:
//
//	bcpchaos -episodes 1000                 # model-check run
//	bcpchaos -seed 7 -class pingpong        # one class only
//	bcpchaos -replay repro.json             # re-run a reproducer artifact
//	bcpchaos -replay repro.json -sabotage   # ...with the historical bug back in
//	bcpchaos -artifacts out/                # write reproducers for failures
//	bcpchaos -corpus corpus/                # harvest wire frames for fuzzing
//	bcpchaos -episodes 1000 -want 8d52...   # ...and the run must be this one
//
// Exit status: 0 when every episode (or the replay) passes, 1 on violations
// or a run digest other than -want, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/chaos"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "run seed (drives schedules, packet chaos, interleavings)")
		episodes  = flag.Int("episodes", 100, "number of seeded episodes")
		class     = flag.String("class", "", "comma-separated schedule classes (default: all of "+strings.Join(chaos.Classes, ",")+")")
		replay    = flag.String("replay", "", "replay a reproducer artifact instead of generating episodes")
		artifacts = flag.String("artifacts", "", "directory for failure reproducer artifacts")
		corpus    = flag.String("corpus", "", "directory to harvest observed wire frames into (fuzz seeds)")
		sabotage  = flag.Bool("sabotage", false, "re-introduce the fixed promote-rearm bug (harness self-test)")
		maxFail   = flag.Int("maxfail", 1, "stop after this many failures (<0 = never)")
		verbose   = flag.Bool("v", false, "progress logging")
		want      = flag.String("want", "", "expected run digest; any other is a failure (behaviour moved)")
	)
	flag.Parse()

	var sab *bcpd.Sabotage
	if *sabotage {
		sab = &bcpd.Sabotage{SkipPromoteRearm: true}
	}
	var harvest *corpusWriter
	var tap func([]byte)
	if *corpus != "" {
		harvest = newCorpusWriter(*corpus)
		tap = harvest.Observe
	}

	if *replay != "" {
		os.Exit(runReplay(*replay, sab, tap, harvest))
	}

	opts := chaos.Options{
		Seed:        *seed,
		Episodes:    *episodes,
		Sabotage:    sab,
		ArtifactDir: *artifacts,
		MaxFailures: *maxFail,
		FrameTap:    tap,
	}
	if *class != "" {
		opts.Classes = strings.Split(*class, ",")
		for _, c := range opts.Classes {
			if !validClass(c) {
				fmt.Fprintf(os.Stderr, "bcpchaos: unknown class %q (have %s)\n", c, strings.Join(chaos.Classes, ","))
				os.Exit(2)
			}
		}
	}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := chaos.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpchaos: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("episodes %d  skipped %d  conns %d  reestablished %d  events %d\n",
		rep.Episodes, rep.Skipped, rep.Conns, rep.Reestablished, rep.Events)
	fmt.Printf("run digest %s\n", rep.Digest)
	if harvest != nil {
		n, err := harvest.Flush()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcpchaos: corpus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("corpus: %d distinct frames -> %s\n", n, *corpus)
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAIL episode %d: shrunk %d -> %d events (%d probe runs)\n",
			f.Episode, len(f.Original.Events), len(f.Shrunk.Events), f.ShrinkRuns)
		for _, v := range f.Violations {
			fmt.Printf("  %s\n", v)
		}
		if f.ArtifactPath != "" {
			fmt.Printf("  reproducer: %s\n", f.ArtifactPath)
		}
	}
	if rep.Failed() {
		os.Exit(1)
	}
	if *want != "" && rep.Digest != *want {
		fmt.Fprintf(os.Stderr, "bcpchaos: run digest %s, want %s: protocol behaviour moved\n", rep.Digest, *want)
		os.Exit(1)
	}
}

func validClass(c string) bool {
	for _, k := range chaos.Classes {
		if k == c {
			return true
		}
	}
	return false
}

func runReplay(path string, sab *bcpd.Sabotage, tap func([]byte), harvest *corpusWriter) int {
	a, err := chaos.ReadArtifact(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpchaos: %v\n", err)
		return 2
	}
	res, err := chaos.ReplayArtifact(a, chaos.RunOptions{Sabotage: sab, FrameTap: tap})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcpchaos: replay: %v\n", err)
		return 1
	}
	fmt.Printf("replayed %s: %s schedule, %d events, digest %s\n",
		path, a.Spec.Class, len(a.Spec.Events), res.Digest)
	if harvest != nil {
		n, err := harvest.Flush()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcpchaos: corpus: %v\n", err)
			return 1
		}
		fmt.Printf("corpus: %d distinct frames\n", n)
	}
	if len(res.Violations) == 0 {
		fmt.Println("PASS")
		return 0
	}
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
	}
	return 1
}
