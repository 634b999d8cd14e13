//go:build linux

package realtime

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// slackRefused is set once prctl has refused the 1 ns slack, so that a sleep
// ran at the thread's default; TestTimerLateness has nothing to measure then.
var slackRefused atomic.Bool

// preciseSleep sleeps for d on the kernel's high-resolution timer. A sleep
// ends up to the calling thread's timer slack past its deadline, 50 us by
// default, so it sleeps at 1 ns slack: the wake-up is then good to the
// scheduler's own latency, about 10 us on an idle host, where the Go
// runtime's own timers are good to a millisecond. Slack is a per-thread
// attribute and Go runs other goroutines, the runtime's own sleeps among
// them, on the same threads; so the goroutine holds its thread for the sleep
// and gives the thread its default slack back after it. prctl fails only
// where a sandbox forbids it, and the sleep then keeps the default slack. An
// early return (EINTR) is fine: the caller re-reads the clock.
func preciseSleep(d time.Duration) {
	runtime.LockOSThread()
	if _, _, e := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0); e != 0 {
		slackRefused.Store(true)
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 0, 0) // 0: the thread's default
	runtime.UnlockOSThread()
}
