package bcpd

import (
	"time"

	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/wire"
)

// The timing model of a Config — what §5 derives from the protocol
// parameters — is computed here and nowhere else (owner_test.go's "owner"
// rule fails on a use of RCC.RMax outside internal/bcpd, internal/rcc and
// bench/); Γ itself is conformance.GammaBound.

// HopBound is D^RCC_max on links of the given capacity: the worst-case
// one-hop control delay of the RCC riding the priority scheduler's control
// class = eligibility wait (1/R_max) + residual transmission of one
// in-flight data packet + the frame's own transmission + propagation.
func (c Config) HopBound(capacityMbps float64) sim.Duration {
	bps := capacityMbps * 1e6
	eligibility := sim.Duration(float64(time.Second) / c.RCC.RMax)
	residual := sim.Duration(float64(c.DataMsgSize*8) / bps * float64(time.Second))
	frame := sim.Duration(float64(c.RCC.SMax*8) / bps * float64(time.Second))
	return eligibility + residual + frame + c.PropDelay
}

// heartbeatMiss is how many consecutive heartbeat intervals a link may miss
// before its downstream node declares it failed.
const heartbeatMiss = 3

// heartbeatDeadline is how long a link may stay silent before its
// downstream node declares it failed.
func (c Config) heartbeatDeadline() sim.Duration {
	return sim.Duration(heartbeatMiss+1) * c.HeartbeatInterval
}

// DetectionWindow is the longest a crash goes unreported by the failed
// component's neighbors: DetectionLatency under oracle detection, the
// heartbeat deadline plus the one check tick it is sampled on otherwise.
func (c Config) DetectionWindow() sim.Duration {
	if c.HeartbeatInterval > 0 {
		return c.heartbeatDeadline() + c.HeartbeatInterval
	}
	return c.DetectionLatency
}

// Conformance returns the checker tolerances of a run under this
// configuration on links of the given capacity, with the §5 Γ rule on. A
// control already past its eligibility wait when a component crashes still
// arrives up to one hop bound later, so that is the in-flight allowance. A
// run whose recoveries have no closed-form bound (loss, wall clock) zeroes
// DMax on the result and says why.
func (c Config) Conformance(capacityMbps float64) (p conformance.Params) {
	p.DMax = c.HopBound(capacityMbps)
	p.DetectionSlack = c.DetectionWindow()
	p.PropSlack = p.DMax
	return p
}

// RCCProvisioning evaluates §5.2's timely-delivery condition, the
// precondition of HopBound: the number of control messages that can transit
// a link is bounded by the number of channels on the link pair between its
// two incident nodes, so
//
//	S^RCC_max >= (control message size) · max over link pairs of
//	             (channels on l + channels on reverse(l))
//
// It returns the worst-case channel count over link pairs and the required
// S^RCC_max in bytes; a Config whose RCC.SMax is below that may break the
// Γ bound under a failure that loads the worst pair.
func RCCProvisioning(m *core.Manager) (maxChannels, requiredBytes int) {
	g := m.Graph()
	net := m.Network()
	for _, l := range g.Links() {
		count := len(net.ChannelsOnLink(l.ID))
		if rev := g.Reverse(l.ID); rev != topology.NoLink {
			count += len(net.ChannelsOnLink(rev))
		}
		if count > maxChannels {
			maxChannels = count
		}
	}
	return maxChannels, maxChannels * (wire.Control{}).Size()
}
