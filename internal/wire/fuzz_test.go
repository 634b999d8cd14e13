package wire_test

import (
	"bytes"
	"testing"

	"github.com/rtcl/bcp/internal/experiment"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// recordedFrames runs the canonical failure-recovery scenario with a frame
// tap and returns every RCC frame that crossed a link: real failure
// reports, activations, rejoin probes, acks, and batches, exactly as
// marshaled by the protocol engine. These seed the fuzz corpus so mutation
// starts from the interesting region of the input space instead of from
// random garbage.
func recordedFrames(tb testing.TB) [][]byte {
	var frames [][]byte
	s := experiment.DefaultTraceScenario()
	s.Config.FrameTap = func(_ topology.LinkID, frame []byte) {
		frames = append(frames, append([]byte(nil), frame...))
	}
	if _, err := experiment.RunTraceScenario(s); err != nil {
		tb.Fatal(err)
	}
	if len(frames) == 0 {
		tb.Fatal("scenario produced no RCC frames")
	}
	return frames
}

// FuzzWireRoundTrip checks the decoder/encoder pair on arbitrary inputs:
// anything Unmarshal accepts must re-marshal to the identical bytes (the
// encoding is canonical and rejects trailing garbage), and Unmarshal must
// never panic or accept a frame that re-encodes differently.
func FuzzWireRoundTrip(f *testing.F) {
	for _, frame := range recordedFrames(f) {
		f.Add(frame)
	}
	// A few adversarial shapes: truncated header, bogus count, bad type.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 5})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 99, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		out, err := frame.MarshalAppend(nil)
		if err != nil {
			t.Fatalf("decoded frame does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not identity:\n in: %x\nout: %x", data, out)
		}
		again, err := wire.Unmarshal(out)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if again.Seq != frame.Seq || again.Ack != frame.Ack || len(again.Controls) != len(frame.Controls) {
			t.Fatalf("decode(encode(decode(x))) diverged: %+v vs %+v", again, frame)
		}
	})
}

// TestRecordedCorpusDecodes pins that every frame the protocol engine emits
// is decodable — the corpus seeder is itself a conformance check on the
// send path.
func TestRecordedCorpusDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol run")
	}
	for i, frame := range recordedFrames(t) {
		if _, err := wire.Unmarshal(frame); err != nil {
			t.Fatalf("frame %d off the wire does not decode: %v", i, err)
		}
	}
}
