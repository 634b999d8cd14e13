//go:build !race

// Not under -race: the tables run single-threaded (the pool's fan-out is
// covered by parallel_test.go), and the detector's slowdown would add about
// a minute and a half to CI's race job for no concurrency coverage.

package experiment

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTables pins Render() of every deterministic bcpsim experiment at
// DefaultOptions with a 200-pair double-node sample and bcpsim's default
// seed, one file per id under testdata/tables: each file is what
// `bcpsim -exp <id> -sample 200` prints. It is the byte-identity check for a
// change that means to keep the paper's numbers; one that means to move them
// re-blesses with `go test ./internal/experiment -run GoldenTables -update`
// (the flag TestGoldenTrace uses) and says why. scalability is left out: it
// prints wall-clock times.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("every table's full sweep")
	}
	opts := DefaultOptions()
	opts.DoubleNodeSample = 200
	opts.Seed = 1
	want := readTestdata("tables")
	for _, id := range IDs {
		if id == "scalability" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Render() + "\n"
			golden := filepath.Join("testdata", "tables", id+".txt")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if got != want[id] {
				t.Fatalf("%s differs from %s (-update to bless or create):\n got:\n%s\nwant:\n%s", id, golden, got, want[id])
			}
		})
	}
}
