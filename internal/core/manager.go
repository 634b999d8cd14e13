package core

import (
	"fmt"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// Establish sets up a D-connection from src to dst with one backup per entry
// of degrees (the paper's "mux=α" knob, one value per backup). It follows
// the paper's establishment procedure (§3.4): the primary is routed on a
// shortest feasible path meeting the +SlackHops QoS rule, then each backup
// on a shortest feasible path avoiding all components of the connection's
// earlier channels, with spare bandwidth reserved under backup multiplexing.
//
// Establishment is all-or-nothing: if any channel cannot be routed or
// admitted, the request is rejected and every reservation it made is undone
// (see admit), matching the paper's client-negotiation model.
func (m *Manager) Establish(src, dst topology.NodeID, spec rtchan.TrafficSpec, degrees []int) (*DConnection, error) {
	defer m.beginWrite()()
	pc := m.estCtx
	if err := pc.route(src, dst, spec, len(degrees)); err != nil {
		return nil, err
	}
	g := m.plan.net.Graph()
	pc.paths = pc.paths[:0]
	for i := range degrees {
		pc.paths = append(pc.paths, pc.backups[i].path(g))
	}
	return m.admit(spec, pc.prim.path(g), pc.paths, degrees)
}

// EstablishOnPaths sets up a D-connection over explicitly chosen paths,
// bypassing route selection but not admission: the primary must pass the
// bandwidth test and every backup must fit the spare pools. Used by tests
// and by callers with out-of-band routing (e.g. traffic-engineering layers).
//
// Channel disjointness is not enforced — the paper only *prefers* avoiding
// the primary's components when routing backups (§3.2); overlap merely
// degrades the connection's Pr. Callers wanting the guarantee must choose
// disjoint paths themselves.
func (m *Manager) EstablishOnPaths(spec rtchan.TrafficSpec, primary topology.Path, backups []topology.Path, degrees []int) (*DConnection, error) {
	defer m.beginWrite()()
	if len(backups) != len(degrees) {
		return nil, fmt.Errorf("core: %d backup paths but %d degrees", len(backups), len(degrees))
	}
	// Everything a path can be rejected for is checked before anything is
	// reserved: signature rows are indexed by this graph's node and link ids.
	g := m.plan.net.Graph()
	if primary.IsZero() {
		return nil, fmt.Errorf("core: empty primary path")
	}
	if primary.Graph() != g {
		return nil, fmt.Errorf("core: primary path belongs to another graph")
	}
	for i, bPath := range backups {
		if bPath.IsZero() {
			return nil, fmt.Errorf("core: empty path for backup %d", i+1)
		}
		if bPath.Graph() != g {
			return nil, fmt.Errorf("core: backup %d path belongs to another graph", i+1)
		}
		if bPath.Source() != primary.Source() || bPath.Destination() != primary.Destination() {
			return nil, fmt.Errorf("core: backup %d endpoints mismatch", i+1)
		}
	}
	return m.admit(spec, primary, backups, degrees)
}

// ReplenishBackups restores a connection's fault-tolerance level after
// recovery consumed or destroyed backups (§4.4: "if necessary, new backup
// channels will be established"): new backups are routed disjointly from
// the connection's current channels and admitted at degree alpha until the
// connection has target backups (or routing/admission fails). avoid, when
// non-nil, excludes additional links — the protocol layer passes the
// components it currently knows to be failed, which the resource plane does
// not track itself. avoid is invoked inside the write transaction and must
// not call back into the Manager. It returns the number of backups added.
func (m *Manager) ReplenishBackups(id rtchan.ConnID, target, alpha int, avoid func(topology.LinkID) bool) (int, error) {
	defer m.beginWrite()()
	conn := m.plan.conns.Get(id)
	if conn == nil {
		return 0, fmt.Errorf("core: unknown connection %d", id)
	}
	if conn.Primary == nil {
		return 0, fmt.Errorf("core: connection %d has no primary", id)
	}
	pc := m.estCtx
	pc.bw = conn.Spec.Bandwidth
	added := 0
	for len(conn.Backups) < target {
		excl := pc.excl.Reset()
		excl.AddPath(conn.Primary.Path)
		for _, b := range conn.Backups {
			excl.AddPath(b.Path)
		}
		if avoid != nil {
			for _, l := range m.Graph().Links() {
				if avoid(l.ID) {
					excl.AddLink(l.ID)
				}
			}
		}
		bPath, ok := pc.routeBackupPath(conn.Src, conn.Dst)
		if !ok {
			break
		}
		bch, err := m.plan.net.Establish(id, rtchan.RoleBackup, bPath, conn.Spec)
		if err != nil {
			break
		}
		if err := m.addBackup(conn, bch, alpha); err != nil {
			_ = m.plan.net.Teardown(bch.ID)
			break
		}
		conn.listBackup(bch, alpha)
		added++
	}
	return added, nil
}

// Teardown releases every channel of a D-connection (§4.4 channel-closure).
func (m *Manager) Teardown(id rtchan.ConnID) error {
	defer m.beginWrite()()
	return m.teardown(id)
}

func (m *Manager) teardown(id rtchan.ConnID) error {
	conn := m.plan.conns.Get(id)
	if conn == nil {
		return fmt.Errorf("core: unknown connection %d", id)
	}
	for _, b := range conn.Backups {
		m.removeBackup(b)
		if err := m.plan.net.Teardown(b.ID); err != nil {
			return err
		}
	}
	if conn.Primary != nil {
		if err := m.plan.net.Teardown(conn.Primary.ID); err != nil {
			return err
		}
		m.settlePath(conn.Primary)
	}
	m.forget(conn)
	return nil
}
