// Package trace defines the typed protocol-event stream emitted by the
// message-level BCP stack: the simulation-facing replacement for free-form
// printf tracing. Every protocol-relevant occurrence — component crashes,
// failure detection, report and activation hops, per-node channel state
// transitions (Figure 4), spare-bandwidth claims, multiplexing failures,
// rejoins, teardowns, RCC reliability actions, data resuming — is one
// fixed-shape Event, of 29 kinds, handed to a pluggable Sink.
//
// Recoveries derives crash → report → activate → switch → data-on-backup
// from the stream, for the conformance checker (internal/conformance) and
// the bcptrace and bcplive CLIs. The counter/histogram aggregator
// (internal/metrics) and bcptrace's JSONL export are the other consumers.
//
// A nil sink costs nothing: producers hold an Emitter and guard every
// emission with Enabled(), so disabled tracing neither constructs events
// nor branches into the sink.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
)

// Kind discriminates protocol events.
type Kind uint8

// Event kinds. The Aux field's meaning is kind-specific and documented per
// constant.
const (
	// KindLinkDown records a simplex link crash. Link is set.
	KindLinkDown Kind = iota + 1
	// KindLinkUp records a link repair.
	KindLinkUp
	// KindNodeDown records a node crash. Node is set.
	KindNodeDown
	// KindNodeUp records a node repair (reboot: soft state is gone).
	KindNodeUp
	// KindDetect records a heartbeat-based failure declaration at the
	// downstream node of the silent link.
	KindDetect
	// KindReportOriginate records a neighbor originating a failure report
	// for Channel. Aux is the propagation direction (+1 destination-ward,
	// -1 source-ward).
	KindReportOriginate
	// KindReportHop records a failure report delivered across Link to Node.
	KindReportHop
	// KindState records a per-node channel state transition (Figure 4):
	// From -> To at Node for Channel.
	KindState
	// KindInstall records a channel entering the protocol plane (initial
	// establishment, replenishment, or rejoin re-registration). To carries
	// the role (StateP or StateB), Aux the channel's hop count.
	KindInstall
	// KindActivationStart records an end node starting backup activation.
	// Aux is 1 when initiated at the source, 0 at the destination.
	KindActivationStart
	// KindActivationHop records an activation message delivered across Link
	// to Node.
	KindActivationHop
	// KindActivationMeet records a Scheme-3 activation discarded at an
	// already-activated node.
	KindActivationMeet
	// KindActivationDone records the backup's promotion in the resource
	// plane (exactly once per successful activation).
	KindActivationDone
	// KindSourceSwitch records the source resuming data transfer on
	// Channel — the recovery instant Γ is measured to.
	KindSourceSwitch
	// KindClaim records spare bandwidth on Link claimed for Channel.
	KindClaim
	// KindClaimRelease records a claim on Link abandoned by Channel.
	KindClaimRelease
	// KindClaimConvert records a claim on Link converted to dedicated
	// bandwidth when Channel was promoted.
	KindClaimConvert
	// KindPreempt records Channel revoking the claim of the lower-priority
	// channel Aux on Link (§4.3).
	KindPreempt
	// KindMuxFailure records spare-bandwidth exhaustion during activation
	// of Channel (§3.3).
	KindMuxFailure
	// KindRejoinRequest records the source probing Channel's failed path.
	KindRejoinRequest
	// KindRejoin records the destination confirming Channel's repair.
	KindRejoin
	// KindRejoinExpire records a rejoin timer expiring at Node: the channel
	// is torn down network-wide.
	KindRejoinExpire
	// KindClosure records a channel-closure message originated at Node.
	KindClosure
	// KindTeardown records an orderly connection teardown starting.
	KindTeardown
	// KindReplenish records a fresh backup established after recovery
	// (§4.4). Aux is the new channel's hop count.
	KindReplenish
	// KindRCCFrame records a payload frame sent by the RCC endpoint of
	// Link. Aux is the number of batched control messages.
	KindRCCFrame
	// KindRCCRetransmit records a retransmission of frame Aux on Link.
	KindRCCRetransmit
	// KindRCCAck records a pure-ACK frame on Link acknowledging Aux.
	KindRCCAck
	// KindDataResume records, at the destination Node, the first data
	// message to arrive on the Channel the source last switched to.
	KindDataResume

	kindMax
)

// NumKinds is the number of distinct event kinds (for dense counters).
const NumKinds = int(kindMax)

var kindNames = [...]string{
	KindLinkDown:        "link-down",
	KindLinkUp:          "link-up",
	KindNodeDown:        "node-down",
	KindNodeUp:          "node-up",
	KindDetect:          "detect",
	KindReportOriginate: "report-originate",
	KindReportHop:       "report-hop",
	KindState:           "state",
	KindInstall:         "install",
	KindActivationStart: "activation-start",
	KindActivationHop:   "activation-hop",
	KindActivationMeet:  "activation-meet",
	KindActivationDone:  "activation-done",
	KindSourceSwitch:    "source-switch",
	KindClaim:           "claim",
	KindClaimRelease:    "claim-release",
	KindClaimConvert:    "claim-convert",
	KindPreempt:         "preempt",
	KindMuxFailure:      "mux-failure",
	KindRejoinRequest:   "rejoin-request",
	KindRejoin:          "rejoin",
	KindRejoinExpire:    "rejoin-expire",
	KindClosure:         "closure",
	KindTeardown:        "teardown",
	KindReplenish:       "replenish",
	KindRCCFrame:        "rcc-frame",
	KindRCCRetransmit:   "rcc-retransmit",
	KindRCCAck:          "rcc-ack",
	KindDataResume:      "data-resume",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a kind name as printed by Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// State is the per-node channel state of the paper's Figure 4. The values
// mirror the protocol engine's internal state machine.
type State uint8

const (
	StateN State = iota // non-existent
	StateP              // healthy primary
	StateB              // healthy backup
	StateU              // unhealthy
)

func (s State) String() string {
	switch s {
	case StateN:
		return "N"
	case StateP:
		return "P"
	case StateB:
		return "B"
	case StateU:
		return "U"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ParseState resolves a state letter as printed by State.String.
func ParseState(s string) (State, error) {
	switch s {
	case "N":
		return StateN, nil
	case "P":
		return StateP, nil
	case "B":
		return StateB, nil
	case "U":
		return StateU, nil
	}
	return 0, fmt.Errorf("trace: unknown state %q", s)
}

// Event is one protocol occurrence. Fields beyond At and Kind are
// kind-specific; unused identifier fields hold their zero value (note that
// node 0 and link 0 are valid identifiers — producers set Node and Link to
// topology.NoNode / topology.NoLink when not applicable).
type Event struct {
	At      sim.Time
	Kind    Kind
	Node    topology.NodeID
	Link    topology.LinkID
	Conn    rtchan.ConnID
	Channel rtchan.ChannelID
	From    State // KindState only
	To      State // KindState and KindInstall (role)
	Aux     int64 // kind-specific, see the Kind constants
}

// String renders the event compactly for humans.
func (e Event) String() string {
	s := fmt.Sprintf("%v %s", e.At, e.Kind)
	if e.Node != topology.NoNode {
		s += fmt.Sprintf(" node=%d", e.Node)
	}
	if e.Link != topology.NoLink {
		s += fmt.Sprintf(" link=%d", e.Link)
	}
	if e.Conn != 0 {
		s += fmt.Sprintf(" conn=%d", e.Conn)
	}
	if e.Channel != 0 {
		s += fmt.Sprintf(" channel=%d", e.Channel)
	}
	if e.Kind == KindState {
		s += fmt.Sprintf(" %v->%v", e.From, e.To)
	}
	if e.Kind == KindInstall {
		s += fmt.Sprintf(" role=%v", e.To)
	}
	if e.Aux != 0 {
		s += fmt.Sprintf(" aux=%d", e.Aux)
	}
	return s
}

// Sink receives protocol events. Implementations must not retain the event
// past Emit (it is a value; retaining a copy is fine) and are called from
// the single-threaded simulation loop — no locking is required.
type Sink interface {
	Emit(Event)
}

// Clock supplies timestamps for event producers that are not themselves
// simulation-aware (e.g. the resource plane). *sim.Engine implements it.
type Clock interface {
	Now() sim.Time
}

var _ Clock = (*sim.Engine)(nil)

// Emitter wraps an optional Sink. The zero Emitter is disabled. Producers
// guard each emission with Enabled() so that a nil sink costs one branch
// and no event construction on the hot path.
type Emitter struct {
	sink Sink
}

// NewEmitter wraps s (nil disables emission).
func NewEmitter(s Sink) Emitter { return Emitter{sink: s} }

// Enabled reports whether events will be delivered.
func (e Emitter) Enabled() bool { return e.sink != nil }

// Emit delivers ev to the sink, if any.
func (e Emitter) Emit(ev Event) {
	if e.sink != nil {
		e.sink.Emit(ev)
	}
}

// Recorder is a Sink that appends every event to Events.
type Recorder struct {
	Events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Reset drops all recorded events, keeping capacity.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// Tee fans one event stream out to several sinks.
type Tee []Sink

// Emit implements Sink.
func (t Tee) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// eventJSON is the stable JSONL schema of one event (the bcptrace -json
// format). From/To appear only on state and install events.
type eventJSON struct {
	At      int64  `json:"at"`
	Kind    string `json:"kind"`
	Node    int32  `json:"node"`
	Link    int32  `json:"link"`
	Conn    int32  `json:"conn"`
	Channel int64  `json:"channel"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	Aux     int64  `json:"aux"`
}

// MarshalJSON encodes the event in the JSONL schema.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		At:      int64(e.At),
		Kind:    e.Kind.String(),
		Node:    int32(e.Node),
		Link:    int32(e.Link),
		Conn:    int32(e.Conn),
		Channel: int64(e.Channel),
		Aux:     e.Aux,
	}
	if e.Kind == KindState {
		j.From = e.From.String()
		j.To = e.To.String()
	}
	if e.Kind == KindInstall {
		j.To = e.To.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes one JSONL event.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	k, err := ParseKind(j.Kind)
	if err != nil {
		return err
	}
	*e = Event{
		At:      sim.Time(j.At),
		Kind:    k,
		Node:    topology.NodeID(j.Node),
		Link:    topology.LinkID(j.Link),
		Conn:    rtchan.ConnID(j.Conn),
		Channel: rtchan.ChannelID(j.Channel),
		Aux:     j.Aux,
	}
	if j.From != "" {
		if e.From, err = ParseState(j.From); err != nil {
			return err
		}
	}
	if j.To != "" {
		if e.To, err = ParseState(j.To); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes one event per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSONL event stream until EOF.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
}
