package bcp

import (
	"math/rand"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/experiment"
	"github.com/rtcl/bcp/internal/realtime"
	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/workload"
)

// --- Topology ----------------------------------------------------------

// Core identifier and graph types.
type (
	// NodeID identifies a node.
	NodeID = topology.NodeID
	// LinkID identifies a simplex link.
	LinkID = topology.LinkID
	// Graph is an immutable network topology.
	Graph = topology.Graph
	// Path is a directed path through a Graph.
	Path = topology.Path
)

// Topology generators.
var (
	// NewTorus builds a wrapped mesh — the paper's main evaluation network
	// is NewTorus(8, 8, 200).
	NewTorus = topology.NewTorus
	// NewMesh builds a grid without wraparound — the paper's second
	// network is NewMesh(8, 8, 300).
	NewMesh = topology.NewMesh
	// NewRing builds a bidirectional ring.
	NewRing = topology.NewRing
	// NewLine builds a path graph.
	NewLine = topology.NewLine
	// NewHypercube builds a binary hypercube.
	NewHypercube = topology.NewHypercube
	// NewRandom builds a connected random graph.
	NewRandom = topology.NewRandom
	// PathBetween builds a Path from a node sequence.
	PathBetween = topology.PathBetween
)

// --- Channels and connections ------------------------------------------

type (
	// ConnID identifies a D-connection.
	ConnID = rtchan.ConnID
	// ChannelID identifies a channel.
	ChannelID = rtchan.ChannelID
	// TrafficSpec is a channel's traffic contract.
	TrafficSpec = rtchan.TrafficSpec
	// Channel is an established real-time channel.
	Channel = rtchan.Channel
	// DConnection is a dependable connection: primary + backups.
	DConnection = core.DConnection
	// Config parameterizes a Manager.
	Config = core.Config
	// Manager is the BCP control plane: establishment, backup
	// multiplexing, failure trials, recovery. Its public API is safe for
	// concurrent use: mutators serialize behind a single-writer lock and
	// readers run concurrently (see TrialView for scalable sweeps).
	Manager = core.Manager
	// TrialView is a cheap per-goroutine read view over a Manager's shared
	// network plan: create one per sweep worker with Manager.NewTrialView
	// and call Trial concurrently.
	TrialView = core.TrialView
)

// DefaultSpec returns the paper's homogeneous traffic contract: 1 Mbps,
// delay bound satisfied within 2 hops over shortest.
func DefaultSpec() TrafficSpec { return rtchan.DefaultSpec() }

// DefaultConfig returns the paper's control-plane parameters (λ = 1e-4).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewManager creates a BCP control plane over an empty network.
func NewManager(g *Graph, cfg Config) *Manager { return core.NewManager(g, cfg) }

// --- Failures and recovery ---------------------------------------------

type (
	// Failure is a set of simultaneously failed components.
	Failure = core.Failure
	// RecoveryStats summarizes one failure event.
	RecoveryStats = core.RecoveryStats
	// ActivationOrder selects how simultaneous activations contend.
	ActivationOrder = core.ActivationOrder
)

// Failure constructors.
var (
	// SingleLink fails one simplex link.
	SingleLink = core.SingleLink
	// SingleNode fails one node (and every channel through it).
	SingleNode = core.SingleNode
	// DoubleNode fails two nodes simultaneously.
	DoubleNode = core.DoubleNode
)

// Activation orders.
const (
	// OrderByConn processes activations in establishment order.
	OrderByConn = core.OrderByConn
	// OrderByPriority activates smaller multiplexing degrees first (§4.3).
	OrderByPriority = core.OrderByPriority
)

// --- Protocol engine ----------------------------------------------------

type (
	// Engine is the deterministic discrete-event executive.
	Engine = sim.Engine
	// Time is a point in simulated time.
	Time = sim.Time
	// Timer is a handle to a scheduled event (cancelable, recyclable).
	Timer = sim.Timer
	// Protocol is the message-level BCP engine (daemons, RCCs, data).
	Protocol = bcpd.Network
	// ProtocolConfig parameterizes the protocol engine.
	ProtocolConfig = bcpd.Config
	// Scheme selects the channel-switching scheme of Figure 5.
	Scheme = bcpd.Scheme
)

// Channel-switching schemes.
const (
	Scheme1 = bcpd.Scheme1
	Scheme2 = bcpd.Scheme2
	Scheme3 = bcpd.Scheme3
)

// NewEngine creates a simulation engine with a deterministic seed.
func NewEngine(seed int64) *Engine { return sim.New(seed) }

// DefaultProtocolConfig returns protocol timing typical of the paper.
func DefaultProtocolConfig() ProtocolConfig { return bcpd.DefaultConfig() }

// NewProtocol builds the message-level engine over an established manager.
func NewProtocol(eng *Engine, mgr *Manager, cfg ProtocolConfig) *Protocol {
	return bcpd.New(eng, mgr, cfg)
}

// --- Live execution ------------------------------------------------------

type (
	// Runtime is the execution substrate the protocol runs on: a clock,
	// a timer service, and a seeded RNG. sim.Engine satisfies it for
	// deterministic runs; RealtimeRuntime drives the same daemons on the
	// wall clock.
	Runtime = runtime.Runtime
	// RealtimeRuntime executes the protocol in real time: per-node actor
	// goroutines with bounded mailboxes and a monotonic-clock timer heap,
	// every protocol callback serialized on one execution lock.
	RealtimeRuntime = realtime.Runtime
	// Transport carries protocol traffic between daemons: the in-sim
	// zero-copy scheduler (what NewProtocol uses) or in-memory pipes.
	Transport = bcpd.Transport
	// PipeTransport carries live traffic over in-memory pipes (loss-free
	// wire; losses only at down links, full pipes, full mailboxes).
	PipeTransport = bcpd.PipeTransport
	// PostFunc enqueues work on a node's actor mailbox; a
	// RealtimeRuntime's Post method has this shape.
	PostFunc = bcpd.PostFunc
)

var (
	// NewRealtimeRuntime creates a wall-clock runtime; call StartActors
	// before building a protocol network on it, and Stop when done.
	NewRealtimeRuntime = realtime.New
	// NewPipeTransport creates an in-memory live transport delivering
	// through a PostFunc.
	NewPipeTransport = bcpd.NewPipeTransport
)

// NewProtocolOn builds the message-level engine on an explicit runtime and
// transport: RealtimeRuntime + PipeTransport runs the daemons NewProtocol
// simulates live. With a live runtime, call it (and every later
// FailLink/StartTraffic/stat read) through RealtimeRuntime.Exec so it is
// serialized with the protocol.
func NewProtocolOn(rt Runtime, tr Transport, mgr *Manager, cfg ProtocolConfig) *Protocol {
	return bcpd.NewOn(rt, tr, mgr, cfg)
}

// --- Reliability mathematics --------------------------------------------

var (
	// SimultaneousActivation is S(Bi,Bj) of §3.2.
	SimultaneousActivation = reliability.SimultaneousActivation
	// NuForDegree converts the integer degree "mux=α" into the ν threshold.
	NuForDegree = reliability.NuForDegree
	// MuxFailureBound is the P_muxf upper bound of §3.3.
	MuxFailureBound = reliability.MuxFailureBound
	// Pr is the combinatorial D-connection reliability of §3.3.
	Pr = reliability.Pr
)

// DConnModel is the Figure 3(a) Markov reliability model.
type DConnModel = reliability.DConnModel

// BackupInfo describes one backup channel for the Pr computation.
type BackupInfo = reliability.BackupInfo

// --- Routing helpers -----------------------------------------------------

var (
	// NewRouter builds a reusable routing engine for one graph: all
	// searches (Distance, ShortestPath, the paper's SequentialDisjointPaths,
	// the flow-based MaxDisjointPaths of [WHA90, SID91]) share its scratch
	// arenas and distance rows (single-threaded).
	NewRouter = routing.NewRouter
)

// RoutingConstraint restricts a path search.
type RoutingConstraint = routing.Constraint

// Router is a reusable routing engine; see NewRouter.
type Router = routing.Router

// Exclusion accumulates components to avoid during disjoint routing
// (RoutingConstraint.Exclude); the zero value is empty.
type Exclusion = routing.Exclusion

// --- Workloads ------------------------------------------------------------

type (
	// Request is one connection request of a workload.
	Request = workload.Request
	// HotSpotConfig parameterizes the inhomogeneous workload of §7.1.
	HotSpotConfig = workload.HotSpotConfig
	// DynamicConfig parameterizes Poisson churn.
	DynamicConfig = workload.DynamicConfig
)

var (
	// AllPairs is the paper's static 64·63-connection workload.
	AllPairs = workload.AllPairs
	// HotSpot generates the inhomogeneous workload.
	HotSpot = workload.HotSpot
	// Dynamic generates Poisson churn.
	Dynamic = workload.Dynamic
	// EstablishWorkload applies a static workload to a manager.
	EstablishWorkload = workload.Establish
	// RunChurn schedules a dynamic workload on an engine.
	RunChurn = workload.RunChurn
)

// --- Experiments ----------------------------------------------------------

// Evaluation network kinds.
const (
	Torus8x8 = experiment.Torus8x8
	Mesh8x8  = experiment.Mesh8x8
)

type (
	// ExperimentOptions controls the evaluation harness.
	ExperimentOptions = experiment.Options
	// Table1Result is a Table 1/3 reproduction.
	Table1Result = experiment.Table1Result
	// Table2Result is a Table 2 reproduction.
	Table2Result = experiment.Table2Result
	// SweepResult aggregates R_fast over a set of failure trials.
	SweepResult = experiment.SweepResult
)

var (
	// DefaultExperimentOptions mirrors the paper's setup.
	DefaultExperimentOptions = experiment.DefaultOptions
	// RunTable1 reproduces Table 1 (R_fast, uniform degrees).
	RunTable1 = experiment.RunTable1
	// RunTable2 reproduces Table 2 (mixed degrees, priority activation).
	RunTable2 = experiment.RunTable2
	// RunTable3 reproduces Table 3 (brute-force multiplexing).
	RunTable3 = experiment.RunTable3
	// RunFigure9 reproduces Figure 9 (spare bandwidth vs load).
	RunFigure9 = experiment.RunFigure9
	// RunFigure3 compares the Markov and combinatorial reliability models.
	RunFigure3 = experiment.RunFigure3
	// RunSection5 validates the recovery-delay bound.
	RunSection5 = experiment.RunSection5
	// RunSchemeComparison compares the three switching schemes.
	RunSchemeComparison = experiment.RunSchemeComparison
	// RunHotspot compares proposed vs brute-force under inhomogeneity.
	RunHotspot = experiment.RunHotspot
	// Sweep evaluates a failure list, aggregating R_fast, on
	// ExperimentOptions.Workers pool workers sharing one network plan
	// (per-worker TrialViews); results are identical for every worker
	// count.
	Sweep = experiment.Sweep
	// AllSingleLinkFailures enumerates one trial per simplex link.
	AllSingleLinkFailures = experiment.AllSingleLinkFailures
)

// NewRand returns a deterministic random source for tie-breaking and
// workload generation.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
