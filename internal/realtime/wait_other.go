//go:build !linux

package realtime

import "time"

// preciseSleep is the portable fallback: as precise as the host's Go timers.
func preciseSleep(d time.Duration) { time.Sleep(d) }
