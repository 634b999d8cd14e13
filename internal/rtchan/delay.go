package rtchan

import (
	"time"

	"github.com/rtcl/bcp/internal/topology"
)

// Worst-case end-to-end delay analysis for real-time channels under the
// RMTP service discipline (internal/sched): non-preemptive static priority
// with control traffic above real-time data, FIFO within the class, and
// token-bucket regulated sources admitting one maximum-size message per
// eligibility interval.
//
// At each hop a tagged message waits for at most:
//
//   - one control frame already in service or queued ahead (the RCC's
//     S^RCC_max — control has priority),
//   - one maximum-size message of every *other* real-time channel sharing
//     the link (each source is regulated, so at most one message per
//     channel can be in the busy period the tagged message joins),
//   - its own transmission time,
//
// plus the link's propagation delay. This is the classic regulated-FIFO
// bound; it is loose but safe, in the spirit of the hard guarantees the
// real-time channel model promises.

// DelayModel carries the fixed parameters of the delay analysis.
type DelayModel struct {
	// ControlFrameSize is S^RCC_max in bytes (one frame may block a data
	// message non-preemptively).
	ControlFrameSize int
	// PropDelay is the per-link propagation delay.
	PropDelay time.Duration
}

// DefaultDelayModel matches the protocol engine's defaults.
func DefaultDelayModel() DelayModel {
	return DelayModel{ControlFrameSize: 256, PropDelay: 500 * time.Microsecond}
}

// PerHopDelayBound returns the worst-case delay a message of the candidate
// spec experiences at link l, given the channels currently established
// there (and counting the candidate itself).
func (n *Network) PerHopDelayBound(l topology.LinkID, candidate TrafficSpec, model DelayModel) time.Duration {
	capacity := n.Capacity(l) * 1e6 // bits/second
	bits := float64(8 * model.ControlFrameSize)
	for _, ch := range n.ChannelsOnLink(l) {
		if ch.Role != RolePrimary {
			continue
		}
		bits += float64(8 * ch.Spec.MaxMsgSize)
	}
	bits += float64(8 * candidate.MaxMsgSize)
	tx := time.Duration(bits / capacity * float64(time.Second))
	return tx + model.PropDelay
}

// PathDelayBound sums the per-hop bounds along a candidate path.
func (n *Network) PathDelayBound(path topology.Path, candidate TrafficSpec, model DelayModel) time.Duration {
	var sum time.Duration
	for _, l := range path.Links() {
		sum += n.PerHopDelayBound(l, candidate, model)
	}
	return sum
}

// DelayAdmission checks whether admitting a candidate primary channel on
// path keeps every delay contract intact: the candidate's own end-to-end
// bound (candidate.DelayBound, when non-zero) and those of all already
// established primaries that share a link with the path (their bounds grow
// by the candidate's per-hop contribution). It returns the candidate's
// predicted end-to-end bound and whether admission is safe.
func (n *Network) DelayAdmission(path topology.Path, candidate TrafficSpec, model DelayModel) (time.Duration, bool) {
	ownBound := n.PathDelayBound(path, candidate, model)
	if candidate.DelayBound > 0 && ownBound > candidate.DelayBound {
		return ownBound, false
	}
	if candidate.MaxMsgSize <= 0 {
		return ownBound, true
	}
	// The candidate adds one max-size message of blocking on every shared
	// link to each established channel crossing it.
	affected := make(map[*Channel]struct{})
	for _, l := range path.Links() {
		for _, ch := range n.ChannelsOnLink(l) {
			affected[ch] = struct{}{}
		}
	}
	for ch := range affected {
		if ch.Role != RolePrimary || ch.Spec.DelayBound <= 0 {
			continue
		}
		current := n.PathDelayBound(ch.Path, TrafficSpec{}, model)
		var extra time.Duration
		for _, l := range ch.Path.Links() {
			if onPath(path, l) {
				extra += time.Duration(float64(8*candidate.MaxMsgSize) / (n.Capacity(l) * 1e6) * float64(time.Second))
			}
		}
		if current+extra > ch.Spec.DelayBound {
			return ownBound, false
		}
	}
	return ownBound, true
}

func onPath(p topology.Path, l topology.LinkID) bool {
	for _, x := range p.Links() {
		if x == l {
			return true
		}
	}
	return false
}
