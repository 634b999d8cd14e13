package trace

import (
	"fmt"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
)

// The stages of one recovery, in protocol order.
const (
	StageDetect   = iota // crash -> a neighbour originates the failure report
	StageReport          // the report reaches an end node, which starts activation
	StageActivate        // activation crosses the backup, which is promoted
	StageSwitch          // promotion -> the source's last switch, the end of Γ
	StageResume          // first data on the switched-to channel at the destination
	NumStages
)

// StageNames names the stages for rendering.
var StageNames = [NumStages]string{"detect", "report", "activate", "switch", "resume"}

// Recovery is one connection's way from a crash back to data on a backup.
// At[0] is the crash, At[k+1] ends stage k, and At[NumStages] is the resume.
type Recovery struct {
	Conn    rtchan.ConnID
	Hops    int // K: the longest channel installed for the connection
	Backups int // b: live and already-reported backups when it opened
	At      [NumStages + 1]sim.Time
}

// Gamma is the paper's Γ: crash to the source's last switch.
func (r Recovery) Gamma() sim.Duration { return r.At[StageSwitch+1].Sub(r.At[0]) }

// Disruption is crash to the first data on the switched-to channel.
func (r Recovery) Disruption() sim.Duration { return r.bound(NumStages).Sub(r.At[0]) }

// Stage returns stage k's duration. The protocol does not pass the boundaries
// in one order (under scheme 3 the source may switch before the promotion is
// recorded), so they are clamped monotone and to the resume: an overtaken
// stage reads zero, and the stages sum to the disruption.
func (r Recovery) Stage(k int) sim.Duration { return r.bound(k + 1).Sub(r.bound(k)) }

// Stages renders the stage split, " detect 1ms report 0s ...", the way every
// recovery line prints it.
func (r Recovery) Stages() string {
	s := ""
	for k, name := range StageNames {
		s += fmt.Sprintf(" %s %v", name, r.Stage(k))
	}
	return s
}

func (r Recovery) bound(i int) sim.Time {
	b, end := r.At[0], max(r.At[NumStages], r.At[0])
	for k := 1; k <= i; k++ {
		b = min(max(r.At[k], b), end)
	}
	return b
}

// Recoveries derives recoveries from the event stream; its zero value is a
// ready Sink. A recovery opens at the first failure report for a connection's
// primary after a crash. A report for the new primary with no crash between
// is a retrial of the same recovery, keeping the crash and b; a new crash
// starts a new one. Γ ends at the last source switch, and the recovery closes
// into Done at KindDataResume on the channel switched to.
type Recoveries struct {
	Done []Recovery

	conns   map[rtchan.ConnID]*connRecovery
	crashAt sim.Time
	crashes int
}

type connRecovery struct {
	primary rtchan.ChannelID
	hops    int
	backups map[rtchan.ChannelID]bool // true once reported, until the next switch
	open    bool
	crashes int   // Recoveries.crashes when rec opened
	ended   uint8 // stages whose end rec records, by bit
	rec     Recovery
}

// Open returns the connection's recovery in progress, if any.
func (rs *Recoveries) Open(conn rtchan.ConnID) (Recovery, bool) {
	if c := rs.conns[conn]; c != nil && c.open {
		return c.rec, true
	}
	return Recovery{}, false
}

// end records the end of stage k; first records only the first one.
func (c *connRecovery) end(k int, at sim.Time, first bool) {
	if c.open && !(first && c.ended&(1<<k) != 0) {
		c.ended |= 1 << k
		c.rec.At[k+1] = at
	}
}

// Emit implements Sink.
func (rs *Recoveries) Emit(ev Event) {
	switch ev.Kind {
	case KindLinkDown, KindNodeDown:
		rs.crashAt, rs.crashes = ev.At, rs.crashes+1
		return
	case KindTeardown:
		delete(rs.conns, ev.Conn)
		return
	case KindInstall, KindReplenish, KindReportOriginate, KindActivationStart,
		KindActivationDone, KindSourceSwitch, KindDataResume:
	default:
		return
	}
	c := rs.conns[ev.Conn]
	if c == nil {
		if rs.conns == nil {
			rs.conns = make(map[rtchan.ConnID]*connRecovery)
		}
		c = &connRecovery{backups: make(map[rtchan.ChannelID]bool)}
		rs.conns[ev.Conn] = c
	}
	switch ev.Kind {
	case KindInstall, KindReplenish:
		c.hops = max(c.hops, int(ev.Aux))
		c.rec.Hops = c.hops
		if ev.Kind == KindInstall && ev.To == StateP {
			c.primary = ev.Channel
		} else {
			c.backups[ev.Channel] = false
		}
	case KindReportOriginate:
		if _, ok := c.backups[ev.Channel]; ok && ev.Channel != c.primary {
			c.backups[ev.Channel] = true
		} else if ev.Channel == c.primary && rs.crashes > 0 && !(c.open && c.crashes == rs.crashes) {
			c.open, c.crashes, c.ended = true, rs.crashes, 0
			c.rec = Recovery{Conn: ev.Conn, Hops: c.hops, Backups: len(c.backups)}
			c.rec.At[0] = rs.crashAt
			c.end(StageDetect, ev.At, true)
		}
	case KindActivationStart:
		c.end(StageReport, ev.At, true)
	case KindActivationDone:
		c.end(StageActivate, ev.At, true)
	case KindSourceSwitch:
		c.end(StageSwitch, ev.At, false)
		c.primary = ev.Channel
		for ch, reported := range c.backups {
			if reported || ch == ev.Channel {
				delete(c.backups, ch)
			}
		}
	case KindDataResume:
		if c.open && c.ended&(1<<StageSwitch) != 0 && ev.Channel == c.primary {
			c.rec.At[NumStages] = ev.At
			rs.Done = append(rs.Done, c.rec)
			c.open = false
		}
	}
}
