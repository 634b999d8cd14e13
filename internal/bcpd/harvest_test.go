package bcpd

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// TestHarvestRCCFuzzCorpus regenerates internal/rcc's storm-harvested fuzz
// corpus: it taps every RCC frame a seeded recovery storm puts on the wire
// (Config.FrameTap) and writes the most batch-heavy distinct frames as seed
// files for FuzzHandleFrame. Real storms produce the multi-control frames —
// coalesced failure reports, activation fan-out, piggybacked ACK fields —
// that hand-written seeds miss. Skipped by default so `go test` stays
// read-only; set HARVEST_RCC_CORPUS=1 to rewrite the committed corpus.
func TestHarvestRCCFuzzCorpus(t *testing.T) {
	if os.Getenv("HARVEST_RCC_CORPUS") == "" {
		t.Skip("set HARVEST_RCC_CORPUS=1 to regenerate testdata/fuzz/FuzzHandleFrame")
	}
	// One representative frame per control-count bucket: the interesting
	// axis for the receive path is how much batching a frame carries.
	byCount := map[int][]byte{}
	tap := func(_ topology.LinkID, frame []byte) {
		f, err := wire.Unmarshal(frame)
		if err != nil || len(f.Controls) < 2 {
			return
		}
		if _, ok := byCount[len(f.Controls)]; !ok {
			byCount[len(f.Controls)] = append([]byte(nil), frame...)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		runDispatchWorld(t, seed, false, true, tap)
	}
	if len(byCount) == 0 {
		t.Fatal("storms produced no multi-control frames to harvest")
	}
	dir := filepath.Join("..", "rcc", "testdata", "fuzz", "FuzzHandleFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for count, frame := range byCount {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("storm-%02d-controls", count))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("harvested %d frames into %s", len(byCount), dir)
}
