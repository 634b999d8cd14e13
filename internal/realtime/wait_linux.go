//go:build linux

package realtime

import (
	"syscall"
	"time"
)

// preciseSleep sleeps for d on the kernel's high-resolution timer, which is
// good to the thread's timer slack (50 us by default) where the Go runtime's
// own timers are good to a millisecond. An early return (EINTR) is fine: the
// caller re-reads the clock.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
