package core

import (
	"fmt"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// ConnectionPr computes the fault-tolerance QoS parameter Pr of a live
// D-connection under the paper's combinatorial model (§3.3): the probability
// that within one time unit either the primary survives, or some backup
// survives both component failures and multiplexing failures.
func (m *Manager) ConnectionPr(conn *DConnection) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.connectionPr(conn)
}

func (m *Manager) connectionPr(conn *DConnection) float64 {
	if conn.Primary == nil {
		return 0
	}
	backups := make([]reliability.BackupInfo, 0, len(conn.Backups))
	for i, b := range conn.Backups {
		nu := reliability.NuForDegree(m.plan.cfg.Lambda, conn.Degrees[i])
		pmux := reliability.MuxFailureBound(nu, m.psiSizes(b))
		backups = append(backups, reliability.BackupInfo{
			Components: b.Path.NumComponents(),
			PMuxFail:   pmux,
		})
	}
	return reliability.Pr(m.plan.cfg.Lambda, conn.Primary.Path.NumComponents(), backups)
}

// prospectivePsiSizes predicts |Ψ(B,ℓ)| for a *hypothetical* backup on
// bPath protecting the primary with signature row primRow, if it were
// admitted with multiplexing degree alpha — the information the paper's
// reservation message collects on its forward pass "with various ν values"
// (§3.4). It runs the admission scan itself (a momentarily primary-less
// connection is counted in Π), so the prediction is the Ψ admission
// realizes: every entry the new backup's Π set does not list.
func (pc *planContext) prospectivePsiSizes(primRow []uint64, bPath topology.Path, alpha int) []int {
	cls := pc.m.plan.degreeClass(alpha)
	links := bPath.Links()
	out := make([]int, len(links))
	for i, l := range links {
		// Π membership does not depend on bandwidth; only the lists are read.
		pc.scan(l, -1, primRow, cls, 0)
		out[i] = len(pc.m.plan.mux[l].entries) - len(pc.pi)
	}
	return out
}

// prospectivePr predicts the Pr a connection would get from the primary with
// signature row primRow and the given backup paths with a uniform
// multiplexing degree alpha.
func (pc *planContext) prospectivePr(primRow []uint64, backups []topology.Path, alpha int) float64 {
	lambda := pc.m.plan.cfg.Lambda
	infos := make([]reliability.BackupInfo, 0, len(backups))
	nu := reliability.NuForDegree(lambda, alpha)
	for _, b := range backups {
		pmux := reliability.MuxFailureBound(nu, pc.prospectivePsiSizes(primRow, b, alpha))
		infos = append(infos, reliability.BackupInfo{Components: b.NumComponents(), PMuxFail: pmux})
	}
	return reliability.Pr(lambda, int(primRow[0]), infos)
}

// EstablishWithPr implements the paper's second QoS-negotiation scheme
// (§3.4): the client's Pr requirement is met "literally". Backups are added
// incrementally, and for each backup count the *largest* multiplexing degree
// (cheapest spare reservation) in [1, maxAlpha] that still meets requiredPr
// is selected. The search mirrors the protocol's two-pass design: the
// primary and the candidate backup paths are routed once, each (count,
// degree) is judged by the Pr its prospective Ψ sizes predict, and the
// first that meets requiredPr is admitted. The prediction is the scan
// admission runs, so an admitted configuration delivers it. A spare pool
// that refuses an attempt rolls it back and the search moves to the next
// count, since a smaller degree only demands more spare.
//
// A rejected negotiation consumes no connection id; a refused attempt may
// consume channel ids, which are monotonic, not dense. The request is
// rejected if requiredPr cannot be met with maxBackups backups (the paper
// renegotiates; callers may retry with a lower Pr).
func (m *Manager) EstablishWithPr(src, dst topology.NodeID, spec rtchan.TrafficSpec, requiredPr float64, maxBackups, maxAlpha int) (*DConnection, error) {
	if requiredPr <= 0 || requiredPr > 1 {
		return nil, fmt.Errorf("core: required Pr %g out of (0,1]", requiredPr)
	}
	if maxBackups < 0 || maxAlpha < 1 {
		return nil, fmt.Errorf("core: invalid negotiation bounds")
	}
	// The search below must be atomic against other writers, so the whole
	// negotiation runs as one write transaction.
	defer m.beginWrite()()
	// Route the primary once; it does not depend on the backup configuration.
	pc := m.estCtx
	if err := pc.route(src, dst, spec, 0); err != nil {
		return nil, err
	}
	prim := pc.prim.path(m.plan.net.Graph())
	// Zero backups may already satisfy a lax requirement.
	if reliability.Pr(m.plan.cfg.Lambda, prim.NumComponents(), nil) >= requiredPr {
		return m.admit(spec, prim, nil, nil)
	}
	// The primary's signature, for the prediction: it has no connection and
	// so no slab row yet.
	primRow := make([]uint64, m.plan.sigStride)
	m.plan.writeSig(primRow, pc.prim.links, pc.prim.nodes)

	// Route candidate backup paths once, around the primary route left
	// excluded; they do not depend on alpha.
	var candidates []topology.Path
	for len(candidates) < maxBackups {
		bPath, ok := pc.routeBackupPath(src, dst)
		if !ok {
			break
		}
		candidates = append(candidates, bPath)
		pc.excl.AddPath(bPath)
	}

	degrees := make([]int, 0, len(candidates))
	for nb := 1; nb <= len(candidates); nb++ {
		paths := candidates[:nb]
		for alpha := maxAlpha; alpha >= 1; alpha-- {
			if pc.prospectivePr(primRow, paths, alpha) < requiredPr {
				continue // too much multiplexing; tighten
			}
			degrees = degrees[:0]
			for range paths {
				degrees = append(degrees, alpha)
			}
			if conn, err := m.admit(spec, prim, paths, degrees); err == nil {
				return conn, nil
			}
			break // refused at this ν: try more backups
		}
	}
	return nil, fmt.Errorf("core: required Pr %g unattainable for %d->%d with <=%d backups",
		requiredPr, src, dst, maxBackups)
}
