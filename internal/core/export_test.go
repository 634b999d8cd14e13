package core

import "github.com/rtcl/bcp/internal/topology"

// SkewClaimed adds d to link l's claimed total with no claim behind it: the
// state ActivateClaimed's second subtraction used to leave (d = −bw), for the
// test that holds the quiescence audit to finding it.
func (m *Manager) SkewClaimed(l topology.LinkID, d float64) {
	defer m.beginWrite()()
	m.plan.mux[l].claimed += d
}
