package realtime

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The two phases of a wait. Constants, not knobs: they describe the host, not
// the protocol.
//
// An otherwise idle Go process parks in epoll_wait, whose timeout is whole
// milliseconds (runtime/netpoll_epoll.go: delay < 1e6 -> waitms = 1), so a Go
// timer fires up to a millisecond late. coarseHorizon is that quantum plus a
// margin: a Go timer aimed coarseHorizon short of the deadline still wakes
// ahead of it. fineStep bounds one precise sleep so stop, wake and the
// caller's queue are looked at again at least that often.
const (
	coarseHorizon = 2 * time.Millisecond
	fineStep      = 100 * time.Microsecond
)

// Wake says why Waiter.Until returned.
type Wake uint8

const (
	Due     Wake = iota // the deadline has passed
	Woken               // wake fired; the caller's deadline may have changed
	Stopped             // stop is closed
)

// Waiter is the wall-clock stack's one way to wait until a deadline: the
// timer goroutine waits for the earliest timer with it and the pipe
// transport's delay line for the head of its queue. A Waiter belongs to one
// goroutine. While the deadline is further than coarseHorizon away it costs
// what a time.Timer costs; only the last stretch is covered by precise sleeps.
type Waiter struct {
	coarse *time.Timer
	// precise counts precise sleeps; read it only once the owning goroutine
	// has exited. coarseWaits counts waits begun on the Go timer, each
	// after its caller's last look at the deadline; read it at any time.
	precise     uint64
	coarseWaits atomic.Uint64
}

// NewWaiter returns a Waiter; Close it when its goroutine is done.
func NewWaiter() *Waiter {
	w := &Waiter{coarse: time.NewTimer(time.Hour)}
	w.coarse.Stop()
	return w
}

// Close releases the Waiter's timer.
func (w *Waiter) Close() { w.coarse.Stop() }

// Until blocks until deadline, until wake delivers, or until stop is closed,
// whichever is first. It never returns Due early, and with the zero deadline
// (nothing to wait for yet) never at all.
func (w *Waiter) Until(deadline time.Time, stop, wake <-chan struct{}) Wake {
	if deadline.IsZero() {
		select {
		case <-stop:
			return Stopped
		case <-wake:
			return Woken
		}
	}
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return Due
		}
		if d > coarseHorizon {
			if !w.coarse.Stop() {
				select {
				case <-w.coarse.C:
				default:
				}
			}
			w.coarse.Reset(d - coarseHorizon)
			w.coarseWaits.Add(1)
			select {
			case <-stop:
				return Stopped
			case <-wake:
				return Woken
			case <-w.coarse.C:
			}
			continue
		}
		select {
		case <-stop:
			return Stopped
		case <-wake:
			return Woken
		default:
		}
		// Yield before sleeping, every step. preciseSleep is a raw syscall:
		// the goroutine keeps its P while it is in the kernel, and a
		// goroutine this one has just made runnable (an actor it posted to,
		// the other waiter it woke) sits in that P's run queue until sysmon
		// takes the P back, which on a quiet process is up to 10 ms.
		// Gosched runs that queue first, so the sleep starts with nothing
		// waiting behind it.
		runtime.Gosched()
		if d = time.Until(deadline); d <= 0 {
			return Due
		}
		w.precise++
		preciseSleep(min(d, fineStep))
	}
}
