package rcc

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/wire"
)

// TestFrameIntervalBoundsControlWait proves the interval argument bcpd's
// counted Γ bound rests on (bcpd/timing.go). An endpoint sends each frame, a
// pure ACK included, one interval (1/R^RCC_max) after its last and no later
// while controls wait, c = wire.MaxControlsForBudget(S^RCC_max) to a frame.
// So a control leaves within one interval of its submission whatever frame
// went before it, and the last of n controls queued at once within ⌈n/c⌉
// intervals; a lossless link retransmits nothing.
func TestFrameIntervalBoundsControlWait(t *testing.T) {
	params := DefaultParams()
	interval := sim.Duration(float64(time.Second) / params.RMax)
	perFrame := wire.MaxControlsForBudget(params.SMax)

	// run submits n controls at a one nanosecond after a's first frame,
	// a pure ACK or one carrying a control, and returns the longest any of
	// the n waited to leave.
	run := func(t *testing.T, afterAck bool, n int) sim.Duration {
		p := newPipe(t, params, sim.Duration(100*time.Microsecond))
		const first = 100 // the n controls' ids
		var submitted sim.Time
		left := map[int64]sim.Time{}
		armed := true
		p.tapA = func(f wire.Frame) {
			for _, c := range f.Controls {
				if _, ok := left[c.Channel]; !ok {
					left[c.Channel] = p.eng.Now()
				}
			}
			if pureAck := f.Seq == 0; armed {
				if pureAck != afterAck {
					t.Fatalf("a's first frame: pure ACK %v, want %v", pureAck, afterAck)
				}
				armed = false
				p.eng.Schedule(1, func() {
					submitted = p.eng.Now()
					for i := 0; i < n; i++ {
						p.a.Submit(ctrl(int64(first + i)))
					}
				})
			}
		}
		if afterAck {
			p.b.Submit(ctrl(1)) // a acknowledges it with a pure ACK
		} else {
			p.a.Submit(ctrl(1))
		}
		p.eng.RunFor(time.Second)
		var worst sim.Duration
		for i := 0; i < n; i++ {
			at, ok := left[int64(first+i)]
			if !ok {
				t.Fatalf("control %d never left", first+i)
			}
			worst = max(worst, at.Sub(submitted))
		}
		want := n
		if !afterAck {
			want++ // and the control that drew a's first frame
		}
		if len(p.recvB) != want {
			t.Fatalf("b received %d controls, want %d", len(p.recvB), want)
		}
		if r := p.a.Stats().Retransmissions + p.b.Stats().Retransmissions; r != 0 {
			t.Errorf("%d retransmissions on a lossless link", r)
		}
		return worst
	}

	t.Run("after a pure ACK", func(t *testing.T) {
		if w := run(t, true, 1); w > interval {
			t.Errorf("waited %v, more than one interval %v", w, interval)
		}
	})
	t.Run("after a control frame", func(t *testing.T) {
		if w := run(t, false, 1); w > interval {
			t.Errorf("waited %v, more than one interval %v", w, interval)
		}
	})
	t.Run("n queued", func(t *testing.T) {
		n := 3 * perFrame // three full frames: one control fewer to a frame needs a fourth
		frames := (n + perFrame - 1) / perFrame
		w := run(t, false, n)
		if w > sim.Duration(frames)*interval {
			t.Errorf("the last of %d controls waited %v, more than ⌈n/c⌉ = %d intervals", n, w, frames)
		}
		if w <= sim.Duration(frames-1)*interval {
			t.Errorf("the last of %d controls waited %v, no more than %d intervals: the bound is loose", n, w, frames-1)
		}
	})
}
