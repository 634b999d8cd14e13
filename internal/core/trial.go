package core

import (
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// trialScratch holds Trial's reusable per-Manager buffers. The R_fast
// sweeps run one Trial per candidate failure over the same loaded network,
// and the per-trial map allocations (affected-channel dedup, per-connection
// grouping, spare claims) dominated the trial's cost. The buffers are
// generation-stamped: advancing gen invalidates every slot at once, so a
// trial pays only for the components it actually touches.
//
// Slices are indexed by the dense ChannelID / ConnID / LinkID spaces.
// Channel and connection IDs are monotonic, so under heavy churn the
// buffers grow to the peak ID (4-9 bytes per ID ever issued).
type trialScratch struct {
	gen      uint32
	chanSeen []uint32 // by ChannelID: dedup of affected channels
	connGen  []uint32 // by ConnID: connection touched this trial
	connPrim []bool   // by ConnID: primary disabled (valid when connGen matches)
	connBkup []int32  // by ConnID: disabled backup count (valid when connGen matches)
	conns    []rtchan.ConnID
	needs    []*DConnection
	claimGen []uint32  // by LinkID
	claimVal []float64 // by LinkID: bandwidth claimed this trial

	// pools, when set, replaces each link's available spare as the pool
	// activations draw from (by LinkID; NewTrialViewWithPools). It is how a
	// comparison scheme that sizes spare differently runs the same walk.
	pools []float64

	// Per-degree accumulation for RecoveryStats.ByDegree. A trial sees a
	// handful of distinct degrees, so a linear-scan pair of slices beats a
	// map in the per-connection hot path; the map is materialized once at
	// the end of the trial.
	degAlpha []int
	degStat  []DegreeStats

	// keepWinners makes tryActivate record each backup it activates, in
	// activation order. Only Apply's scratch sets it: a trial has no use for
	// the list, and Apply turns exactly these claims into promotions.
	keepWinners bool
	winners     []*rtchan.Channel
}

// addDegree accumulates into the alpha class's per-trial breakdown.
func (t *trialScratch) addDegree(alpha, failed, recovered int) {
	for i, a := range t.degAlpha {
		if a == alpha {
			t.degStat[i].FailedPrimaries += failed
			t.degStat[i].FastRecovered += recovered
			return
		}
	}
	t.degAlpha = append(t.degAlpha, alpha)
	t.degStat = append(t.degStat, DegreeStats{FailedPrimaries: failed, FastRecovered: recovered})
}

// degreeMap builds the trial's ByDegree map (nil when no class was touched)
// and resets the accumulator for the next trial.
func (t *trialScratch) degreeMap() map[int]DegreeStats {
	if len(t.degAlpha) == 0 {
		return nil
	}
	m := make(map[int]DegreeStats, len(t.degAlpha))
	for i, a := range t.degAlpha {
		m[a] = t.degStat[i]
	}
	t.degAlpha = t.degAlpha[:0]
	t.degStat = t.degStat[:0]
	return m
}

// begin starts a new trial, invalidating all slots.
func (t *trialScratch) begin(numLinks int) {
	t.gen++
	if t.gen == 0 { // wrapped: stamps from 2^32 trials ago are ambiguous
		for i := range t.chanSeen {
			t.chanSeen[i] = 0
		}
		for i := range t.connGen {
			t.connGen[i] = 0
		}
		for i := range t.claimGen {
			t.claimGen[i] = 0
		}
		t.gen = 1
	}
	if len(t.claimGen) < numLinks {
		t.claimGen = make([]uint32, numLinks)
		t.claimVal = make([]float64, numLinks)
	}
	t.conns = t.conns[:0]
	t.degAlpha = t.degAlpha[:0]
	t.degStat = t.degStat[:0]
}

// markChan records channel id as affected, reporting whether it was new.
func (t *trialScratch) markChan(id rtchan.ChannelID) bool {
	if int(id) >= len(t.chanSeen) {
		grown := make([]uint32, int(id)+1+len(t.chanSeen)/2)
		copy(grown, t.chanSeen)
		t.chanSeen = grown
	}
	if t.chanSeen[id] == t.gen {
		return false
	}
	t.chanSeen[id] = t.gen
	return true
}

// hit reports whether markChan stamped channel id this trial.
func (t *trialScratch) hit(id rtchan.ChannelID) bool {
	return int(id) < len(t.chanSeen) && t.chanSeen[id] == t.gen
}

// connSlot returns the index of conn id's per-trial state, initializing it
// (and recording the connection) on first touch.
func (t *trialScratch) connSlot(id rtchan.ConnID) int {
	if int(id) >= len(t.connGen) {
		n := int(id) + 1 + len(t.connGen)/2
		grownGen := make([]uint32, n)
		copy(grownGen, t.connGen)
		t.connGen = grownGen
		grownPrim := make([]bool, n)
		copy(grownPrim, t.connPrim)
		t.connPrim = grownPrim
		grownBkup := make([]int32, n)
		copy(grownBkup, t.connBkup)
		t.connBkup = grownBkup
	}
	if t.connGen[id] != t.gen {
		t.connGen[id] = t.gen
		t.connPrim[id] = false
		t.connBkup[id] = 0
		t.conns = append(t.conns, id)
	}
	return int(id)
}

// claimed returns the bandwidth claimed on link l this trial.
func (t *trialScratch) claimed(l topology.LinkID) float64 {
	if t.claimGen[l] != t.gen {
		return 0
	}
	return t.claimVal[l]
}

// claim draws bw from link l's pool for this trial.
func (t *trialScratch) claim(l topology.LinkID, bw float64) {
	if t.claimGen[l] != t.gen {
		t.claimGen[l] = t.gen
		t.claimVal[l] = 0
	}
	t.claimVal[l] += bw
}
