package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/trace"
)

// -update never writes testdata/paper: those cells are transcribed by hand.
var updateGolden = flag.Bool("update", false, "rewrite golden trace and table files")

// TestGoldenTrace pins the exact event stream of the canonical Scheme-3
// single-link-crash scenario. The simulator is deterministic, so any
// difference — an extra retransmission, a reordered state transition, a
// changed claim — is a behavior change that must be reviewed (and, if
// intended, blessed with `go test ./internal/experiment -run GoldenTrace
// -update`). The comparison uses the JSONL encoding, which is byte-stable,
// so the golden file is also a fixture for external JSONL consumers.
func TestGoldenTrace(t *testing.T) {
	s := DefaultTraceScenario()
	s.RunFor = sim.Duration(time.Second)
	run, err := RunTraceScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, run.Events); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_scheme3_linkcrash.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		n := len(gotLines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n got: %s\nwant: %s\n(%d vs %d events; -update to bless)",
					i+1, gotLines[i], wantLines[i], len(run.Events), len(wantLines)-1)
			}
		}
		t.Fatalf("trace length changed: %d events, golden has %d (-update to bless)",
			len(run.Events), len(wantLines)-1)
	}

	// The golden stream must itself decode and re-encode losslessly, so the
	// file stays a valid fixture for -json consumers.
	events, err := trace.ReadJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden file does not parse: %v", err)
	}
	if len(events) != len(run.Events) {
		t.Fatalf("golden decodes to %d events, run produced %d", len(events), len(run.Events))
	}
}
