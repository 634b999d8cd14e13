//go:build linux && !race

package realtime

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/testhost"
)

// TestTimerLateness measures fired - due on an idle runtime for 200 timers
// spread over 150 us - 3 ms, one at a time so the process is parked while
// each is pending — the condition under which a Go timer alone fires up to a
// millisecond late (median ~600 us over this spread before the Waiter, ~960
// for the benchmark's 200 us probe). The ceiling is below the kernel's
// default 50 us timer slack, so it also fails when the precise sleeps run at
// that slack (median ~58 us) rather than at 1 ns (~10 us); where prctl
// refuses the 1 ns slack the test is skipped. Not under -race: its slowdown
// would force the ceiling loose.
func TestTimerLateness(t *testing.T) {
	const (
		timers  = 200
		ceiling = 40 * time.Microsecond
	)
	testhost.Retry(t, 6, 30*time.Millisecond, func() error {
		r := New(1)
		late := make([]time.Duration, 0, timers)
		fired := make(chan sim.Time)
		for i := 0; i < timers; i++ {
			d := 150*time.Microsecond + time.Duration(i)*(2850*time.Microsecond)/(timers-1)
			due := r.Now().Add(d)
			r.At(due, func() { fired <- r.Now() })
			late = append(late, (<-fired).Sub(due))
		}
		r.Stop()
		if slackRefused.Load() {
			t.Skip("prctl refused the 1 ns timer slack: the sleeps kept the default, which the ceiling is below")
		}
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		if late[0] < 0 {
			t.Fatalf("a timer fired %v before it was due", -late[0])
		}
		t.Logf("timer lateness p50 %v, p95 %v, max %v", late[timers/2], late[timers*95/100], late[timers-1])
		if late[timers/2] > ceiling {
			return fmt.Errorf("median timer lateness %v, want <= %v", late[timers/2], ceiling)
		}
		return nil
	})
}

// TestPreciseSleepRestoresSlack checks that a precise sleep leaves its thread
// at the slack it found: the 1 ns slack is the sleep's own, not a lasting
// change to a thread that Go also runs other goroutines and its own sleeps on.
func TestPreciseSleepRestoresSlack(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	slack := func() uintptr {
		v, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_GET_TIMERSLACK, 0, 0)
		if e != 0 {
			t.Skipf("prctl(PR_GET_TIMERSLACK): %v", e)
		}
		return v
	}
	before := slack()
	preciseSleep(10 * time.Microsecond)
	if after := slack(); after != before {
		t.Fatalf("thread timer slack %d ns after a precise sleep, %d ns before", after, before)
	}
}
