package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/trace"
)

// span is one interval at a layer boundary. Wall-clock spans surround a call
// the harness makes into a layer; runtime-clock spans are derived from the
// protocol's own event stream (simulated nanoseconds on the simulator,
// monotonic nanoseconds since runtime start when live). Spans of one request
// share Trace; Parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Clock  string `json:"clock"`
}

const (
	clockWall    = "wall"
	clockRuntime = "runtime"
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method is a no-op behind one branch, so the same
// workload loop serves both passes.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a wall-clock span and returns its index.
func (t *tracer) begin(name string, traceID int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Trace: traceID, Parent: parent,
		Start: int64(time.Since(t.t0)), Clock: clockWall})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a finished span on either clock.
func (t *tracer) add(s span) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (children may overlap each other; the union
// is subtracted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		ch := kids[int32(i)]
		if len(ch) == 0 {
			self[i] = dur
			continue
		}
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		var covered int64
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for k, c := range ch {
			cs, ce := spans[c].Start, spans[c].End
			if cs < s.Start {
				cs = s.Start
			}
			if ce > s.End {
				ce = s.End
			}
			if ce <= cs {
				continue
			}
			if k == 0 || cs > curE {
				flush()
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		flush()
		self[i] = dur - covered
	}
	return self
}

// layerRow is one line of the per-layer table: how much work the layer did,
// how long it was busy doing it itself, and how long including what it
// called.
type layerRow struct {
	layer        string
	clock        string
	count        int
	totalNs      int64
	selfNs       int64
	medianSelfNs float64
}

// layerOf maps a span name such as "core.Establish" to its layer, "core".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	type key struct{ layer, clock string }
	rows := make(map[key]*layerRow)
	selfs := make(map[key][]float64)
	for i, s := range spans {
		k := key{layerOf(s.Name), s.Clock}
		r := rows[k]
		if r == nil {
			r = &layerRow{layer: k.layer, clock: k.clock}
			rows[k] = r
		}
		r.count++
		r.totalNs += s.End - s.Start
		r.selfNs += self[i]
		selfs[k] = append(selfs[k], float64(self[i]))
	}
	out := make([]layerRow, 0, len(rows))
	for k, r := range rows {
		r.medianSelfNs = percentile(sortedCopy(selfs[k]), 0.5)
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].layer != out[b].layer {
			return out[a].layer < out[b].layer
		}
		return out[a].clock < out[b].clock
	})
	return out
}

func printLayerTable(w io.Writer, workload string, spans []span) {
	fmt.Fprintf(w, "  per-layer spans (%s): layer clock count busy(self) total median-self\n", workload)
	for _, r := range layerTable(spans) {
		fmt.Fprintf(w, "    %-12s %-8s %8d %14v %14v %12v\n", r.layer, r.clock, r.count,
			time.Duration(r.selfNs), time.Duration(r.totalNs), time.Duration(int64(r.medianSelfNs)))
	}
}

// spanFile is the --spans output: one JSON span per line. Passes append in
// turn; each pass's parent indices are rebased onto the file's line numbers,
// so a parent is always the zero-based line of the enclosing span.
type spanFile struct {
	f *os.File
	w *bufio.Writer
	n int32 // spans written so far
}

func createSpanFile(path string) (*spanFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spanFile{f: f, w: bufio.NewWriter(f)}, nil
}

func (sf *spanFile) append(spans []span) error {
	enc := json.NewEncoder(sf.w)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += sf.n
		}
		if err := enc.Encode(&s); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	sf.n += int32(len(spans))
	return nil
}

func (sf *spanFile) close() error {
	if err := sf.w.Flush(); err != nil {
		sf.f.Close()
		return err
	}
	return sf.f.Close()
}

// The five stages of one recovery, in the order the protocol passes through
// them. Their durations telescope: they always sum to the connection's
// disruption (crash to the first data message at the destination after the
// source switched).
const (
	stageDetect   = iota // crash -> a neighbour originates the failure report
	stageReport          // report travels to an end node, which starts activation
	stageActivate        // activation crosses the backup path and is promoted
	stageSwitch          // promotion -> the source resumes on the backup
	stageResume          // first data message on the backup reaches the destination
	numStages
)

var stageNames = [numStages]string{"detect", "report", "activate", "switch", "resume"}

// recovery is the stage breakdown of one disrupted connection.
type recovery struct {
	conn  rtchan.ConnID
	hops  int                     // K of the channel now carrying the data; filled by the caller
	bound [numStages + 1]sim.Time // monotone boundaries; bound[0] is the crash
}

func (r recovery) stage(i int) sim.Duration { return r.bound[i+1].Sub(r.bound[i]) }
func (r recovery) disruption() sim.Duration { return r.bound[numStages].Sub(r.bound[0]) }

// deriveRecoveries turns the event stream of one crash into per-connection
// stage boundaries. For each connection in arrivals (connection -> first data
// arrival after its source switched) it takes, after the crash instant, the
// first ReportOriginate, ActivationStart, ActivationDone and SourceSwitch
// carrying that connection. The protocol does not pass these in one fixed
// order: under scheme 3 the source switches when it starts its own activation,
// which may precede the promotion, and data can reach the destination over
// nodes both activations already crossed before the promotion is recorded. So
// boundaries are clamped to be monotone and to end at the arrival: a stage
// that was overtaken reads as zero and the stages always sum to the
// disruption. Connections missing any event are skipped and counted.
func deriveRecoveries(events []trace.Event, crashAt sim.Time, arrivals map[rtchan.ConnID]sim.Time) (out []recovery, incomplete int) {
	type marks struct {
		at  [4]sim.Time
		has [4]bool
	}
	seen := make(map[rtchan.ConnID]*marks, len(arrivals))
	for c := range arrivals {
		seen[c] = &marks{}
	}
	for _, ev := range events {
		if ev.At < crashAt {
			continue
		}
		var k int
		switch ev.Kind {
		case trace.KindReportOriginate:
			k = 0
		case trace.KindActivationStart:
			k = 1
		case trace.KindActivationDone:
			k = 2
		case trace.KindSourceSwitch:
			k = 3
		default:
			continue
		}
		m := seen[ev.Conn]
		if m == nil || m.has[k] {
			continue
		}
		m.at[k], m.has[k] = ev.At, true
	}
	conns := make([]rtchan.ConnID, 0, len(seen))
	for c := range seen {
		conns = append(conns, c)
	}
	sort.Slice(conns, func(a, b int) bool { return conns[a] < conns[b] })
	for _, c := range conns {
		m := seen[c]
		if !(m.has[0] && m.has[1] && m.has[2] && m.has[3]) {
			incomplete++
			continue
		}
		r := recovery{conn: c}
		r.bound[0] = crashAt
		for k := 0; k < 4; k++ {
			r.bound[k+1] = m.at[k]
		}
		end := arrivals[c]
		r.bound[numStages] = end
		for k := 1; k < numStages; k++ {
			r.bound[k] = min(max(r.bound[k], r.bound[k-1]), end)
		}
		out = append(out, r)
	}
	return out, incomplete
}

// medianRecoveryStages decomposes the median disruption: it averages each
// stage over the recoveries whose disruption lies between the 40th and 60th
// percentile. Stage medians taken independently do not add up (a median is
// not additive); the stages of the recoveries around the median do, so the
// five values returned sum to (within the band's width of) the median
// disruption. Values are nanoseconds on the runtime clock.
func medianRecoveryStages(rs []recovery) (stages [numStages]float64, n int) {
	if len(rs) == 0 {
		return stages, 0
	}
	d := make([]float64, len(rs))
	for i, r := range rs {
		d[i] = float64(r.disruption())
	}
	s := sortedCopy(d)
	lo, hi := percentile(s, 0.4), percentile(s, 0.6)
	for i, r := range rs {
		if d[i] < lo || d[i] > hi {
			continue
		}
		n++
		for k := 0; k < numStages; k++ {
			stages[k] += float64(r.stage(k))
		}
	}
	for k := range stages {
		stages[k] /= float64(n)
	}
	return stages, n
}
