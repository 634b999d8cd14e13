package trace

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

func ms(n float64) sim.Time { return sim.Time(n * float64(time.Millisecond)) }

// on is an event of connection 1 on channel ch.
func on(at float64, k Kind, ch rtchan.ChannelID) Event {
	return Event{At: ms(at), Kind: k, Node: topology.NoNode, Link: topology.NoLink, Conn: 1, Channel: ch}
}

func install(ch rtchan.ChannelID, role State) Event {
	ev := on(0, KindInstall, ch)
	ev.To, ev.Aux = role, 4
	return ev
}

func crash(at float64) Event {
	return Event{At: ms(at), Kind: KindLinkDown, Node: topology.NoNode, Link: 7}
}

func TestRecoveriesRules(t *testing.T) {
	p, b1, b2 := install(1, StateP), install(2, StateB), install(3, StateB)
	for _, tc := range []struct {
		name   string
		events []Event
		want   []Recovery
	}{{
		// Scheme 3: the source switches when it starts its own activation,
		// before the promotion is recorded. The switch stage is overtaken.
		name: "overtaken stage reads zero",
		events: []Event{p, b1, crash(100), on(101, KindReportOriginate, 1), on(101, KindActivationStart, 2),
			on(101, KindSourceSwitch, 2), on(104, KindActivationDone, 2), on(106, KindDataResume, 2)},
		want: []Recovery{{Conn: 1, Hops: 4, Backups: 1, At: [NumStages + 1]sim.Time{ms(100), ms(101), ms(101), ms(104), ms(101), ms(106)}}},
	}, {
		// Backup 2 is dead too: the report for it as the new primary, with no
		// crash between, is a retrial. Γ ends at the last switch and b stays.
		name: "retrial is one recovery",
		events: []Event{p, b1, b2, crash(100), on(101, KindReportOriginate, 1), on(101, KindActivationStart, 2),
			on(101, KindSourceSwitch, 2), on(103, KindReportOriginate, 2), on(103, KindActivationStart, 3),
			on(107, KindSourceSwitch, 3), on(108, KindActivationDone, 3), on(109, KindDataResume, 3)},
		want: []Recovery{{Conn: 1, Hops: 4, Backups: 2, At: [NumStages + 1]sim.Time{ms(100), ms(101), ms(101), ms(108), ms(107), ms(109)}}},
	}, {
		// A message already in flight on the failed primary's healthy tail
		// reaches the destination after the switch; it is not the backup.
		name: "arrival on the old primary does not close",
		events: []Event{p, b1, crash(100), on(101, KindReportOriginate, 1), on(102, KindSourceSwitch, 2),
			on(102.5, KindDataResume, 1), on(106, KindDataResume, 2)},
		want: []Recovery{{Conn: 1, Hops: 4, Backups: 1, At: [NumStages + 1]sim.Time{ms(100), ms(101), 0, 0, ms(102), ms(106)}}},
	}, {
		// The backup switched to crashes before data resumed on it: the
		// report that follows opens a new recovery from the new crash.
		name: "new crash starts a new recovery",
		events: []Event{p, b1, b2, crash(100), on(101, KindReportOriginate, 1), on(102, KindSourceSwitch, 2),
			crash(103), on(104, KindReportOriginate, 2), on(105, KindSourceSwitch, 3), on(107, KindDataResume, 3)},
		want: []Recovery{{Conn: 1, Hops: 4, Backups: 1, At: [NumStages + 1]sim.Time{ms(103), ms(104), 0, 0, ms(105), ms(107)}}},
	}, {
		name: "teardown forgets the connection",
		events: []Event{p, b1, crash(100), on(101, KindReportOriginate, 1), on(102, KindSourceSwitch, 2),
			on(103, KindTeardown, 0), on(104, KindDataResume, 2)},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var rs Recoveries
			for _, ev := range tc.events {
				rs.Emit(ev)
			}
			if len(rs.Done) != len(tc.want) {
				t.Fatalf("Done = %+v, want %+v", rs.Done, tc.want)
			}
			for i, r := range rs.Done {
				if r != tc.want[i] {
					t.Fatalf("Done[%d] = %+v, want %+v", i, r, tc.want[i])
				}
			}
			if _, open := rs.Open(1); open {
				t.Fatal("a recovery is still open at the end of the stream")
			}
		})
	}
}

func TestRecoveryStages(t *testing.T) {
	// The overtaken case: switch at 101 before the promotion at 104.
	r := Recovery{At: [NumStages + 1]sim.Time{ms(100), ms(101), ms(101), ms(104), ms(101), ms(106)}}
	const m = time.Millisecond
	want := [NumStages]sim.Duration{m, 0, 3 * m, 0, 2 * m}
	for k := range want {
		if got := r.Stage(k); got != want[k] {
			t.Errorf("stage %s = %v, want %v", StageNames[k], got, want[k])
		}
	}
	if r.Gamma() != m || r.Disruption() != 6*m {
		t.Errorf("Γ %v, disruption %v; want 1ms, 6ms", r.Gamma(), r.Disruption())
	}
	// A stage with no event recorded (zero) reads zero, too.
	r.At[StageReport+1], r.At[StageActivate+1] = 0, 0
	if r.Stage(StageReport) != 0 || r.Stage(StageActivate) != 0 || r.Stage(StageResume) != 5*m {
		t.Errorf("unrecorded stages: %v %v %v", r.Stage(StageReport), r.Stage(StageActivate), r.Stage(StageResume))
	}
}

// FuzzRecoveries feeds arbitrary event streams, time running backwards
// included, through the deriver: it must not panic, and every recovery it
// closes has non-negative stages that sum to its disruption.
func FuzzRecoveries(f *testing.F) {
	f.Add([]byte{
		byte(KindInstall), 0x81, 0x41, 0, byte(KindInstall), 0x01, 0x42, 0,
		byte(KindLinkDown), 0, 0, 100, byte(KindReportOriginate), 0, 1, 1,
		byte(KindSourceSwitch), 0, 2, 1, byte(KindDataResume), 0, 2, 4,
	})
	f.Add([]byte{byte(KindLinkDown), 0, 0, 0xf0, byte(KindDataResume), 1, 1, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs Recoveries
		var at sim.Time
		for ; len(data) >= 4; data = data[4:] {
			at += sim.Time(int8(data[3])) * ms(0.25)
			ev := Event{
				At:      at,
				Kind:    Kind(data[0] % byte(NumKinds)),
				Node:    topology.NoNode,
				Link:    topology.NoLink,
				Conn:    rtchan.ConnID(1 + data[1]&1),
				Channel: rtchan.ChannelID(data[2] & 3),
				To:      StateB,
				Aux:     int64(data[2] >> 4),
			}
			if data[1]&0x80 != 0 {
				ev.To = StateP
			}
			rs.Emit(ev)
			rs.Open(ev.Conn)
		}
		for _, r := range rs.Done {
			var sum sim.Duration
			for k := 0; k < NumStages; k++ {
				if r.Stage(k) < 0 {
					t.Fatalf("%+v: stage %s = %v", r, StageNames[k], r.Stage(k))
				}
				sum += r.Stage(k)
			}
			if sum != r.Disruption() {
				t.Fatalf("%+v: stages sum to %v, disruption %v", r, sum, r.Disruption())
			}
		}
	})
}
