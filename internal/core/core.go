// Package core implements the paper's primary contribution: the Backup
// Channel Protocol (BCP) control plane.
//
// A dependable connection (D-connection) is a primary real-time channel plus
// zero or more cold-standby backup channels, routed component-disjointly.
// Spare bandwidth for backups is shared per link by *backup multiplexing*
// (§3.2): two backups may share spare bandwidth when the probability
// S(Bi,Bj) that they need simultaneous activation — bounded by the
// probability of simultaneous failure of their primaries — is below the
// per-connection multiplexing threshold ν.
//
// The Manager provides the transactional view used by the paper's
// evaluation: connection establishment (§3.4), failure trials measuring the
// fast-recovery ratio R_fast (§7.2-7.4), activation with spare-pool claims
// and multiplexing failures, and resource reconfiguration (§4.4). The
// message-level protocol machinery (failure reports, activation messages,
// rejoin, RCC transport) lives in internal/core's protocol files and
// internal/rcc.
package core

import (
	"fmt"
	"sync"

	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// Config parameterizes a Manager.
type Config struct {
	// Lambda is the per-component failure probability during one time unit
	// (the paper's λ). It scales every multiplexing threshold.
	Lambda float64
}

// DefaultConfig returns the configuration used by the paper's evaluation:
// λ=1e-4.
func DefaultConfig() Config {
	return Config{Lambda: 1e-4}
}

// DConnection is a dependable connection: a primary channel and its backups.
type DConnection struct {
	ID       rtchan.ConnID
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec

	Primary *rtchan.Channel
	Backups []*rtchan.Channel // in serial (activation) order
	Degrees []int             // multiplexing degree α per backup (paper's "mux=α")

	sig        int32 // row of the plan's primary-signature slab (sig.go)
	replDegree int32 // see ReplacementDegree; int32 beside sig fills its padding
}

// ReplacementDegree returns the multiplexing degree a replenished or
// rejoined backup of the connection takes: the last degree configured on
// it, kept after the backup that had it was promoted or torn down, and 1
// for a connection that never had a backup.
func (d *DConnection) ReplacementDegree() int { return int(d.replDegree) }

// listBackup appends ch to the connection's backups at degree alpha, which
// becomes the degree its replacement backups take.
func (d *DConnection) listBackup(ch *rtchan.Channel, alpha int) {
	d.Backups = append(d.Backups, ch)
	d.Degrees = append(d.Degrees, alpha)
	d.replDegree = int32(alpha)
}

// unlistBackup removes backup id from the connection's lists; the degree
// replacement backups take stays.
func (d *DConnection) unlistBackup(id rtchan.ChannelID) {
	for i, x := range d.Backups {
		if x.ID == id {
			d.Backups = append(d.Backups[:i], d.Backups[i+1:]...)
			d.Degrees = append(d.Degrees[:i], d.Degrees[i+1:]...)
			return
		}
	}
}

// Manager is the BCP control plane for one network. It owns a shared
// NetworkPlan (the state the paper computes its tables from) plus the
// writer-side machinery that mutates it.
//
// Concurrency model (see DESIGN.md "Concurrency model"): the public API is
// safe for concurrent use. Mutating entry points (Establish, Teardown, the
// protocol-plane claim/activation calls, ...) serialize behind a
// single-writer lock; read entry points take the reader side, so any number
// of them may run during quiescence and none during a write. Failure
// trials run only through a TrialView (NewTrialView), one per goroutine: a
// trial is a pure read over the shared plan with per-goroutine scratch, so
// sweeps scale with cores without rebuilding per-worker managers.
//
// Two escape hatches bypass the lock and are writer-side or quiescent-only:
// Router (routing scratch arenas) and Network (the reservation substrate,
// read by experiments after establishment settles).
type Manager struct {
	// mu is the single-writer boundary: every mutating entry point holds it
	// exclusively, every reading entry point (and every TrialView trial)
	// holds it shared. Internal methods never lock — public wrappers lock
	// once and delegate, so the lock is never re-entered.
	mu   sync.RWMutex
	plan NetworkPlan

	nextConn rtchan.ConnID
	// router owns the routing scratch arenas and the per-source SPT cache.
	// It is writer-side state: establishment and recovery route under the
	// exclusive lock, and external Router() callers must not overlap writes.
	router *routing.Router

	// estCtx is the writer-side planning context (wrapping m.router and an
	// exclusion set shared by Establish, EstablishWithPr and ReplenishBackups,
	// never live at once): Establish is route, then admit, under the write
	// lock (see establish.go).
	estCtx *planContext

	// touched is the writer-side touched-link scratch shared by every
	// reconfiguration entry point (ActivateClaimed, TeardownChannel):
	// all of them run under the write lock and none nest, so one cleared map
	// serves each call without a per-call allocation. Recovery storms hit
	// these paths once per promotion and once per teardown.
	touched map[topology.LinkID]struct{}

	// piStale[l] marks that link l's stored pair decisions were derived from
	// a primary path that has since changed, so the next reconfiguration of l
	// must take the full Π rebuild; coalesceReconfig gates whether fresh
	// links may take the O(entries) resize instead (see reconfig.go).
	piStale          []bool
	coalesceReconfig bool

	// traceEm/traceClock emit protocol events from the claim paths when the
	// message-level engine attaches a sink (SetProtocolTrace). The zero
	// Emitter is disabled: one branch per claim call, no event construction.
	traceEm    trace.Emitter
	traceClock trace.Clock
}

// NewManager creates a BCP manager over an empty reservation network for g.
func NewManager(g *topology.Graph, cfg Config) *Manager {
	if cfg.Lambda <= 0 || cfg.Lambda >= 1 {
		panic(fmt.Sprintf("core: lambda %g out of (0,1)", cfg.Lambda))
	}
	m := &Manager{
		plan: NetworkPlan{
			cfg:          cfg,
			net:          rtchan.NewNetwork(g),
			mux:          make([]linkMux, g.NumLinks()),
			sigStride:    1 + (g.NumNodes()+g.NumLinks()+63)/64,
			sigNodes:     g.NumNodes(),
			sigNodeWords: (g.NumNodes() + 63) / 64,
			sigNodeMask:  ^uint64(0) >> ((64 - g.NumNodes()%64) % 64),
			thr:          newPiThresholds(cfg.Lambda, g.NumNodes()),
		},
		nextConn: 1,
		router:   routing.NewRouter(g),
		piStale:  make([]bool, g.NumLinks()),
	}
	m.estCtx = newPlanContext(m, m.router, routing.NewExclusion())
	return m
}

// beginWrite enters the single-writer critical section and advances the
// plan's write-transaction epoch; the returned function leaves the section.
// Every mutating entry point opens with `defer m.beginWrite()()` and then
// only calls unexported (lockless) methods, so the lock is never re-entered.
func (m *Manager) beginWrite() func() {
	m.mu.Lock()
	m.plan.epoch++
	return m.mu.Unlock
}

// takeTouched returns the shared touched-link scratch, cleared. Callers must
// hold the write lock; no reconfiguration entry point nests inside another,
// so the map is never live twice.
func (m *Manager) takeTouched() map[topology.LinkID]struct{} {
	if m.touched == nil {
		m.touched = make(map[topology.LinkID]struct{}, 32)
	}
	clear(m.touched)
	return m.touched
}

// Network exposes the reservation substrate (read-mostly; experiments use
// it for metrics). The pointer is stable for the manager's lifetime; its
// contents change under writes, so callers must not read it concurrently
// with mutating Manager calls.
func (m *Manager) Network() *rtchan.Network { return m.plan.net }

// Graph returns the topology.
func (m *Manager) Graph() *topology.Graph { return m.plan.net.Graph() }

// Router exposes the manager's routing engine. The router's scratch arenas
// are writer-side state: external callers must not use it concurrently with
// any Manager call that routes (Establish, ReplenishBackups, ...).
func (m *Manager) Router() *routing.Router { return m.router }

// PlanEpoch returns the plan's write-transaction counter: it advances on
// every mutating entry point, so two equal readings bracket a span with no
// intervening writes (the control-plane analogue of Graph.Version).
func (m *Manager) PlanEpoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.epoch
}

// Connection returns the D-connection with the given id, or nil.
func (m *Manager) Connection(id rtchan.ConnID) *DConnection {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.conns.Get(id)
}

// Connections returns all live D-connections in establishment order.
func (m *Manager) Connections() []*DConnection {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*DConnection, 0, m.plan.conns.Len())
	m.plan.conns.Each(func(_ rtchan.ConnID, c *DConnection) { out = append(out, c) })
	return out
}

// NumConnections returns the number of live D-connections.
func (m *Manager) NumConnections() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.conns.Len()
}
