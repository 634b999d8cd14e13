package wire

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripEmptyFrame(t *testing.T) {
	f := Frame{Seq: 7, Ack: 3}
	b, err := f.MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != f.Size() {
		t.Fatalf("size = %d, want %d", len(b), f.Size())
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Ack != 3 || len(got.Controls) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripControls(t *testing.T) {
	f := Frame{
		Seq: 42,
		Ack: 41,
		Controls: []Control{
			{Type: MsgFailureReport, Channel: 123456789, Origin: 17, Toward: 1},
			{Type: MsgActivation, Channel: -1, Origin: 0, Toward: -1},
			{Type: MsgRejoinRequest, Channel: 1, Origin: 63, Toward: 1},
			{Type: MsgRejoin, Channel: 99, Origin: 2, Toward: -1},
			{Type: MsgChannelClosure, Channel: 5, Origin: 9, Toward: 1},
		},
	}
	b, err := f.MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n have %+v\n want %+v", got, f)
	}
}

func TestRoundTripProperty(t *testing.T) {
	fn := func(seq, ack uint32, raw []struct {
		T uint8
		C int64
		O int32
		D bool
	}) bool {
		f := Frame{Seq: seq, Ack: ack}
		for _, r := range raw {
			c := Control{
				Type:    MsgType(r.T%5) + MsgFailureReport,
				Channel: r.C,
				Origin:  r.O,
				Toward:  1,
			}
			if r.D {
				c.Toward = -1
			}
			f.Controls = append(f.Controls, c)
		}
		b, err := f.MarshalAppend(nil)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		if len(got.Controls) == 0 && len(f.Controls) == 0 {
			got.Controls, f.Controls = nil, nil
		}
		return reflect.DeepEqual(f, got)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, _ := Frame{Seq: 1, Controls: []Control{{Type: MsgActivation, Channel: 1, Toward: 1}}}.MarshalAppend(nil)
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      {1, 2, 3},
		"truncated control": good[:len(good)-1],
		"trailing garbage":  append(append([]byte{}, good...), 0xFF),
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Bad control type.
	bad := append([]byte{}, good...)
	bad[frameHeaderSize] = 0xEE
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad type: no error")
	}
	// Bad direction.
	bad2 := append([]byte{}, good...)
	bad2[len(bad2)-1] = 5
	if _, err := Unmarshal(bad2); err == nil {
		t.Error("bad direction: no error")
	}
}

func TestMaxControlsForBudget(t *testing.T) {
	if got := MaxControlsForBudget(frameHeaderSize); got != 0 {
		t.Fatalf("header-only budget fits %d", got)
	}
	if got := MaxControlsForBudget(0); got != 0 {
		t.Fatalf("zero budget fits %d", got)
	}
	budget := 256
	n := MaxControlsForBudget(budget)
	f := Frame{Controls: make([]Control, n)}
	for i := range f.Controls {
		f.Controls[i] = Control{Type: MsgActivation, Toward: 1}
	}
	if f.Size() > budget {
		t.Fatalf("%d controls exceed budget: %d > %d", n, f.Size(), budget)
	}
	f.Controls = append(f.Controls, Control{Type: MsgActivation, Toward: 1})
	if f.Size() <= budget {
		t.Fatalf("budget should not fit %d controls", n+1)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, tt := range []MsgType{MsgFailureReport, MsgActivation, MsgRejoinRequest, MsgRejoin, MsgChannelClosure} {
		if s := tt.String(); s == "" || s[0] == 'm' {
			t.Fatalf("bad string %q", s)
		}
	}
	if s := MsgType(99).String(); s != "msgtype(99)" {
		t.Fatalf("unknown type string %q", s)
	}
}

func BenchmarkMarshalFrame(b *testing.B) {
	f := Frame{Seq: 1, Ack: 1, Controls: make([]Control, 32)}
	for i := range f.Controls {
		f.Controls[i] = Control{Type: MsgFailureReport, Channel: int64(i), Toward: 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.MarshalAppend(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalFrame(b *testing.B) {
	f := Frame{Seq: 1, Ack: 1, Controls: make([]Control, 32)}
	for i := range f.Controls {
		f.Controls[i] = Control{Type: MsgFailureReport, Channel: int64(i), Toward: 1}
	}
	data, _ := f.MarshalAppend(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
