package bcpd

import (
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/runtime"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/trace"
)

// FlightCapacity is how many of the most recent events a checked network's
// flight recorder keeps.
const FlightCapacity = 4096

// ReportTail is how many of the flight's last events a failure report
// prints.
const ReportTail = 20

// Checked is a protocol network assembled with its conformance checker and
// a flight recorder on one event stream, so a violation comes with the
// events that led up to it. Every checked harness is built by NewChecked.
type Checked struct {
	*Network
	Checker  *conformance.Checker
	Recorder *trace.ArenaSink
}

// NewChecked builds the network like NewOn, its stream teed to the flight
// recorder, a checker and cfg.Sink, in that order. The checker allows one
// D^RCC_max in flight after a crash and reads the network's Γ bound
// (CountGamma); adjust, if set, edits that first and may clear Gamma.
// Sources, faults and the drain stay with the caller, which calls
// Checker.Finish when the run is over.
func NewChecked(rt runtime.Runtime, tr Transport, mgr *core.Manager, cfg Config, adjust func(*conformance.Params)) *Checked {
	c := &Checked{Recorder: trace.NewFlightRecorder(FlightCapacity)}
	p := conformance.Params{
		PropSlack: cfg.dmax(mgr.Graph()),
		Gamma:     func(r trace.Recovery) sim.Duration { return c.Network.gammaBound(r) },
	}
	if adjust != nil {
		adjust(&p)
	}
	c.Checker = conformance.New(p)
	sinks := trace.Tee{c.Recorder, c.Checker}
	if cfg.Sink != nil {
		sinks = append(sinks, cfg.Sink)
	}
	cfg.Sink = sinks
	c.Network = NewOn(rt, tr, mgr, cfg)
	if p.Gamma != nil {
		c.CountGamma()
	}
	return c
}

// Flight returns the recorded events up to and including the first
// violation's event (its Seq is the recorder's lifetime index); with no
// violation, an end-of-stream one, or one that left the ring, the window.
func (c *Checked) Flight(vs []conformance.Violation) []trace.Event {
	evs := c.Recorder.Events(nil)
	if len(vs) > 0 && vs[0].Seq >= 0 {
		if keep := vs[0].Seq - int(c.Recorder.Total()) + len(evs) + 1; keep > 0 && keep <= len(evs) {
			return evs[:keep]
		}
	}
	return evs
}
