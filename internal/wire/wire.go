// Package wire defines the binary encodings of BCP's control messages and
// of the RCC frames that batch them (the paper's Figure 7 message format).
//
// An RCC frame carries a sequence number, a cumulative acknowledgment of the
// reverse direction, and a batch of control messages. Control messages are
// fixed-format TLV-ish records; everything is big-endian.
package wire

import (
	"encoding/binary"
	"fmt"
)

// MsgType identifies a control message.
type MsgType uint8

// Control message types (paper §4, §5.1).
const (
	// MsgFailureReport reports the failure of a channel to its end nodes,
	// traveling along the healthy segments of the channel's path.
	MsgFailureReport MsgType = iota + 1
	// MsgActivation activates a backup channel, traveling along the
	// backup's path.
	MsgActivation
	// MsgRejoinRequest probes a failed channel's path for repair
	// (source -> destination).
	MsgRejoinRequest
	// MsgRejoin confirms repair (destination -> source); state U -> B.
	MsgRejoin
	// MsgChannelClosure tears a channel down along its path.
	MsgChannelClosure
	// MsgLinkFailure notifies a link's upstream node that its downstream
	// neighbor stopped seeing heartbeats (failure-detection support; the
	// Channel field carries the link id).
	MsgLinkFailure
)

func (t MsgType) String() string {
	switch t {
	case MsgFailureReport:
		return "failure-report"
	case MsgActivation:
		return "activation"
	case MsgRejoinRequest:
		return "rejoin-request"
	case MsgRejoin:
		return "rejoin"
	case MsgChannelClosure:
		return "channel-closure"
	case MsgLinkFailure:
		return "link-failure"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// valid reports whether t is a known control message type.
func (t MsgType) valid() bool { return t >= MsgFailureReport && t <= MsgLinkFailure }

// Control is one BCP control message. Channel identifies the subject
// channel. Origin is the node that generated the message (diagnostic).
// Toward distinguishes the propagation direction along the channel path:
// +1 toward the destination, -1 toward the source.
type Control struct {
	Type    MsgType
	Channel int64
	Origin  int32
	Toward  int8
}

// controlSize is the wire size of one control message.
const controlSize = 1 + 8 + 4 + 1

// Size returns the encoded size in bytes.
func (c Control) Size() int { return controlSize }

func (c Control) appendTo(b []byte) []byte {
	b = append(b, byte(c.Type))
	b = binary.BigEndian.AppendUint64(b, uint64(c.Channel))
	b = binary.BigEndian.AppendUint32(b, uint32(c.Origin))
	b = append(b, byte(c.Toward))
	return b
}

func parseControl(b []byte) (Control, []byte, error) {
	if len(b) < controlSize {
		return Control{}, nil, fmt.Errorf("wire: control truncated: %d bytes", len(b))
	}
	c := Control{
		Type:    MsgType(b[0]),
		Channel: int64(binary.BigEndian.Uint64(b[1:9])),
		Origin:  int32(binary.BigEndian.Uint32(b[9:13])),
		Toward:  int8(b[13]),
	}
	if !c.Type.valid() {
		return Control{}, nil, fmt.Errorf("wire: unknown control type %d", b[0])
	}
	if c.Toward != 1 && c.Toward != -1 {
		return Control{}, nil, fmt.Errorf("wire: invalid direction %d", c.Toward)
	}
	return c, b[controlSize:], nil
}

// Frame is one RCC message: a batch of control messages plus reliability
// metadata, exchanged hop-by-hop between neighboring BCP daemons.
type Frame struct {
	// Seq is the sender's frame sequence number (per RCC, monotonically
	// increasing from 1).
	Seq uint32
	// Ack is the highest frame sequence number received in-order from the
	// reverse-direction RCC (cumulative acknowledgment; 0 = none).
	Ack uint32
	// Controls is the batch (possibly empty for a pure-ACK frame).
	Controls []Control
}

// frameHeaderSize is seq + ack + count.
const frameHeaderSize = 4 + 4 + 2

// Size returns the encoded frame size in bytes.
func (f Frame) Size() int { return frameHeaderSize + len(f.Controls)*controlSize }

// MaxControlsForBudget returns how many control messages fit in an RCC
// message of at most budget bytes. (S^RCC_max in the paper's model.)
func MaxControlsForBudget(budget int) int {
	n := (budget - frameHeaderSize) / controlSize
	if n < 0 {
		return 0
	}
	return n
}

// MarshalAppend encodes the frame, appending to b. Callers that recycle
// frame buffers pass a pooled b[:0] to keep the encode path allocation-free.
func (f Frame) MarshalAppend(b []byte) ([]byte, error) {
	if len(f.Controls) > 0xFFFF {
		return nil, fmt.Errorf("wire: too many controls: %d", len(f.Controls))
	}
	b = binary.BigEndian.AppendUint32(b, f.Seq)
	b = binary.BigEndian.AppendUint32(b, f.Ack)
	b = binary.BigEndian.AppendUint16(b, uint16(len(f.Controls)))
	for _, c := range f.Controls {
		b = c.appendTo(b)
	}
	return b, nil
}

// Unmarshal decodes a frame, rejecting trailing garbage. A pure-ACK frame
// decodes with nil Controls.
func Unmarshal(b []byte) (Frame, error) {
	return UnmarshalScratch(b, nil)
}

// UnmarshalScratch decodes a frame like Unmarshal but appends the control
// batch into scratch[:0], letting callers recycle one decode buffer across
// frames. The returned Frame's Controls alias scratch; they are valid until
// the next decode into the same scratch.
func UnmarshalScratch(b []byte, scratch []Control) (Frame, error) {
	if len(b) < frameHeaderSize {
		return Frame{}, fmt.Errorf("wire: frame truncated: %d bytes", len(b))
	}
	f := Frame{
		Seq: binary.BigEndian.Uint32(b[0:4]),
		Ack: binary.BigEndian.Uint32(b[4:8]),
	}
	count := int(binary.BigEndian.Uint16(b[8:10]))
	rest := b[frameHeaderSize:]
	ctls := scratch[:0]
	for i := 0; i < count; i++ {
		var c Control
		var err error
		c, rest, err = parseControl(rest)
		if err != nil {
			return Frame{}, fmt.Errorf("wire: control %d: %w", i, err)
		}
		ctls = append(ctls, c)
	}
	if len(rest) != 0 {
		return Frame{}, fmt.Errorf("wire: %d trailing bytes", len(rest))
	}
	if count > 0 {
		f.Controls = ctls
	}
	return f, nil
}
