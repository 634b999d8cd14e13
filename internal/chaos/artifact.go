package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/rtcl/bcp/internal/trace"
)

// Artifact is a replayable failure record: the (usually shrunk) spec plus
// what went wrong when it ran. Written as indented JSON so reproducers can
// be read, diffed, and checked in as golden regression scenarios.
type Artifact struct {
	// Spec replays the failure: `bcpchaos -replay <file>` or
	// ReplayArtifact in tests.
	Spec Spec `json:"spec"`
	// Violations observed when Spec last ran.
	Violations []string `json:"violations"`
	// Digest of the failing episode's event stream.
	Digest string `json:"digest"`
	// Note records provenance (e.g. "shrunk from seed 42 episode 17 in 83
	// probe runs").
	Note string `json:"note,omitempty"`
	// Flight is the failing run's flight recorder (Result.Flight): the
	// events that led up to the first violation.
	Flight []trace.Event `json:"flight,omitempty"`
}

// WriteArtifact serializes a to path, creating parent directories.
func WriteArtifact(path string, a Artifact) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("chaos: artifact dir: %w", err)
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("chaos: artifact marshal: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("chaos: artifact write: %w", err)
	}
	return nil
}

// ReadArtifact loads an artifact written by WriteArtifact.
func ReadArtifact(path string) (Artifact, error) {
	var a Artifact
	b, err := os.ReadFile(path)
	if err != nil {
		return a, fmt.Errorf("chaos: artifact read: %w", err)
	}
	if err := json.Unmarshal(b, &a); err != nil {
		return a, fmt.Errorf("chaos: artifact parse %s: %w", path, err)
	}
	return a, nil
}

// ReplayArtifact re-runs an artifact's spec and returns the fresh result.
// Replay of a checked-in reproducer for a fixed bug should come back clean;
// replay with the bug re-introduced (Sabotage) should fail again.
func ReplayArtifact(a Artifact, opts RunOptions) (Result, error) {
	return RunEpisode(a.Spec, opts)
}
