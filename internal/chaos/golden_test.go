package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/sim"
)

// sabotaged re-introduces the bug the promote-rearm golden reproduces.
var sabotaged = RunOptions{Sabotage: &bcpd.Sabotage{SkipPromoteRearm: true}}

// replay reads an artifact and replays it under opts.
func replay(t *testing.T, path string, opts RunOptions) (Artifact, Result) {
	t.Helper()
	a, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayArtifact(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, res
}

// The golden reproducers under testdata/ are shrunk chaos artifacts promoted
// to permanent regression scenarios. Each replays clean against current code;
// the promote-rearm one must additionally still fail when the historical bug
// is reintroduced via the sabotage hook, proving the scenario keeps biting.
func TestGoldenReproducersReplayClean(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("expected at least 2 golden artifacts, found %d", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			if _, res := replay(t, f, RunOptions{}); len(res.Violations) != 0 {
				t.Fatalf("golden scenario regressed: %v", res.Violations)
			}
		})
	}
}

// TestGoldenPromoteRearmStillBites replays the promote-rearm golden with the
// seeded bug re-enabled: if the artifact ever stops failing under sabotage,
// it no longer guards the promote-once rearm and must be regenerated.
func TestGoldenPromoteRearmStillBites(t *testing.T) {
	a, res := replay(t, "testdata/promote-rearm-pingpong.json", sabotaged)
	if len(res.Violations) == 0 {
		t.Fatal("promote-rearm golden no longer fails with the seeded bug enabled")
	}
	if res.Digest != a.Digest {
		t.Fatalf("sabotage replay digest drifted: got %s, artifact records %s", res.Digest, a.Digest)
	}
}

// TestGoldenRejoinConfirmRace pins the fix for the stale soft-state leak the
// chaos hunt found: a rejoin confirm raced a re-failure of its own link, the
// destination's rejoin timer expired after the confirm had converted upstream
// nodes to B, and teardown never told them. The artifact's Violations field
// preserves the pre-fix signature; the replay must stay clean.
func TestGoldenRejoinConfirmRace(t *testing.T) {
	a, res := replay(t, "testdata/rejoin-confirm-race.json", RunOptions{})
	if len(a.Violations) == 0 {
		t.Fatal("artifact should record the historical failure signature")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("rejoin-confirm race regressed: %v", res.Violations)
	}
	if res.Digest != a.Digest {
		t.Fatalf("replay digest drifted: got %s, artifact records %s", res.Digest, a.Digest)
	}
}

// TestArtifactRoundTrip checks that a reproducer survives a JSON round trip:
// a generated spec and the sabotaged promote-rearm replay with its flight
// read back equal and replay to the same digest, that flight ends at or
// after the first violation, and the goldens, which hold no flight,
// re-serialize byte for byte.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	roundTrip := func(a Artifact, opts RunOptions) {
		t.Helper()
		if err := WriteArtifact(filepath.Join(dir, "repro.json"), a); err != nil {
			t.Fatal(err)
		}
		back, res := replay(t, filepath.Join(dir, "repro.json"), opts)
		if !slices.Equal(back.Flight, a.Flight) || res.Digest != a.Digest {
			t.Errorf("round trip: flight equal %v, digest %s, want %s", slices.Equal(back.Flight, a.Flight), res.Digest, a.Digest)
		}
	}
	spec, err := Generate(*chaosSeed, ClassDouble)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := RunEpisode(spec, RunOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	roundTrip(Artifact{Spec: spec, Violations: res.Violations, Digest: res.Digest}, RunOptions{})

	a, res := replay(t, "testdata/promote-rearm-pingpong.json", sabotaged)
	var at string
	if _, err := fmt.Sscanf(res.Violations[0], "conformance: event %d at %s", new(int), &at); err != nil {
		t.Fatalf("first violation %q: %v", res.Violations[0], err)
	}
	first, err := time.ParseDuration(strings.TrimSuffix(at, ":"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flight) == 0 || res.Flight[len(res.Flight)-1].At < sim.Time(first) {
		t.Fatalf("flight of %d events does not reach the first violation at %v", len(res.Flight), first)
	}
	a.Flight = res.Flight
	roundTrip(a, sabotaged)

	for _, f := range []string{"testdata/promote-rearm-pingpong.json", "testdata/rejoin-confirm-race.json"} {
		g, err := ReadArtifact(f)
		out := filepath.Join(dir, filepath.Base(f))
		if err != nil || WriteArtifact(out, g) != nil {
			t.Fatalf("%s: %v", f, err)
		}
		want, _ := os.ReadFile(f)
		if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
			t.Errorf("%s does not re-serialize byte for byte", f)
		}
	}
}
