// Command bcptrace runs one failure-recovery scenario through the
// message-level BCP protocol engine and renders its typed event stream:
// detection, failure reports and their hops, Figure-4 state transitions,
// activations, spare-bandwidth claims, multiplexing failures, rejoins,
// teardowns, and RCC retransmissions.
//
// After the events it prints one line per recovery: Γ against the bound the
// conformance checker holds it to (detection window plus the §5 bound for
// the recovery's K and b), then the disruption split into its stages.
//
// Usage:
//
//	bcptrace                       # default: 8-hop torus connection, link crash
//	bcptrace -scheme 1             # destination-initiated switching
//	bcptrace -fail 5               # crash the primary's 6th link
//	bcptrace -backups 2 -hit-first # also crash backup 1: activation retrial
//	bcptrace -repair 200ms         # repair the link, watch the rejoin
//	bcptrace -json > run.jsonl     # machine-readable JSONL export
//	bcptrace -rcc                  # include per-frame RCC transport events
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/experiment"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/trace"
)

func main() {
	var (
		scheme   = flag.Int("scheme", 3, "channel-switching scheme (1|2|3)")
		failPos  = flag.Int("fail", 2, "primary link index to crash")
		backups  = flag.Int("backups", 1, "number of backup channels")
		hitFirst = flag.Bool("hit-first", false, "also crash the first backup's last link")
		repair   = flag.Duration("repair", 0, "repair the failed link after this delay (0 = never)")
		rate     = flag.Float64("rate", 500, "data message rate (msgs/s)")
		jsonOut  = flag.Bool("json", false, "emit the event stream as JSONL on stdout")
		withRCC  = flag.Bool("rcc", false, "include per-frame RCC transport events in the rendering")
	)
	flag.Parse()

	s := experiment.DefaultTraceScenario()
	s.Config.Scheme = bcpd.Scheme(*scheme)
	s.FailPos = *failPos
	s.Backups = *backups
	s.HitFirst = *hitFirst
	s.Repair = *repair
	s.Rate = *rate
	run, err := experiment.RunTraceScenario(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcptrace:", err)
		os.Exit(1)
	}

	if *jsonOut {
		if err := trace.WriteJSONL(os.Stdout, run.Events); err != nil {
			fmt.Fprintln(os.Stderr, "bcptrace:", err)
			os.Exit(1)
		}
		return
	}

	conn := run.Conn
	fmt.Printf("connection %d: primary %v\n", conn.ID, conn.Primary.Path)
	for i, b := range conn.Backups {
		fmt.Printf("backup %d: %v\n", i+1, b.Path)
	}
	agg := metrics.NewProtocolAggregator()
	var recs trace.Recoveries
	for _, ev := range run.Events {
		agg.Emit(ev)
		recs.Emit(ev)
		switch ev.Kind {
		case trace.KindRCCFrame, trace.KindRCCRetransmit, trace.KindRCCAck:
			if !*withRCC {
				continue
			}
		case trace.KindState:
			// Transitions are numerous; render only end-node and failure
			// transitions to keep the default view readable.
			if ev.To == trace.StateB && ev.From == trace.StateN {
				continue
			}
		}
		fmt.Printf("%12v  %s\n", time.Duration(ev.At), describe(ev))
	}

	st := run.Net.Stats()
	fmt.Printf("\nsummary: reports=%d activations=%d muxfail=%d rejoins=%d expiries=%d\n",
		st.ReportsGenerated, st.ActivationsStarted, st.MuxFailures, st.Rejoins, st.RejoinExpiries)
	fmt.Printf("data: sent=%d delivered=%d lost=%d  disruption=%v\n",
		st.DataSent, st.DataDelivered, st.DataSent-st.DataDelivered,
		time.Duration(run.Net.MaxArrivalGap(conn.ID)))
	p := s.Config.Conformance(run.Mgr.Graph().Link(0).Capacity)
	// A run that ends mid-rejoin can hold claims legitimately; bcptrace is
	// a viewer, so report rather than fail.
	p.AllowOutstandingClaims = true
	for _, r := range recs.Done {
		// The bound the checker holds this recovery to.
		bound := p.DetectionSlack + conformance.GammaBound(p.DMax, r.Hops, r.Backups)
		within := "≤"
		if r.Gamma() > bound {
			within = ">"
		}
		fmt.Printf("recovery of connection %d (K=%d, b=%d): Γ %v %s bound %v, disruption %v =",
			r.Conn, r.Hops, r.Backups, r.Gamma(), within, bound, r.Disruption())
		for k, name := range trace.StageNames {
			fmt.Printf(" %s %v", name, r.Stage(k))
		}
		fmt.Println()
	}
	fmt.Printf("\n%s", agg.Render())

	if viols := conformance.Check(run.Events, p); len(viols) > 0 {
		fmt.Printf("\nconformance violations:\n")
		for _, v := range viols {
			fmt.Printf("  %v\n", v)
		}
	} else {
		fmt.Printf("\nconformance: ok\n")
	}
}

// describe renders one event like the old printf trace: a node column when
// the event has a location, then the story.
func describe(ev trace.Event) string {
	loc := "---    "
	if ev.Node >= 0 {
		loc = fmt.Sprintf("node %-2d", ev.Node)
	}
	var what string
	switch ev.Kind {
	case trace.KindLinkDown:
		what = fmt.Sprintf("link %d crashes", ev.Link)
	case trace.KindLinkUp:
		what = fmt.Sprintf("link %d repaired", ev.Link)
	case trace.KindNodeDown:
		what = "node crashes"
	case trace.KindNodeUp:
		what = "node repaired"
	case trace.KindDetect:
		what = fmt.Sprintf("heartbeats lost on link %d: declaring failure", ev.Link)
	case trace.KindReportOriginate:
		what = fmt.Sprintf("detects failure of channel %d, reporting toward %+d", ev.Channel, ev.Aux)
	case trace.KindReportHop:
		what = fmt.Sprintf("failure report for channel %d arrives via link %d", ev.Channel, ev.Link)
	case trace.KindState:
		what = fmt.Sprintf("channel %d: %v -> %v", ev.Channel, ev.From, ev.To)
	case trace.KindInstall:
		what = fmt.Sprintf("channel %d installed as %v (%d hops)", ev.Channel, ev.To, ev.Aux)
	case trace.KindActivationStart:
		end := "destination"
		if ev.Aux == 1 {
			end = "source"
		}
		what = fmt.Sprintf("activating backup %d from the %s", ev.Channel, end)
	case trace.KindActivationHop:
		what = fmt.Sprintf("activation of backup %d arrives via link %d", ev.Channel, ev.Link)
	case trace.KindActivationMeet:
		what = fmt.Sprintf("activations of backup %d meet: discarding", ev.Channel)
	case trace.KindActivationDone:
		what = fmt.Sprintf("activation of backup %d complete: promoting", ev.Channel)
	case trace.KindSourceSwitch:
		what = fmt.Sprintf("source of connection %d resumes data on channel %d", ev.Conn, ev.Channel)
	case trace.KindClaim:
		what = fmt.Sprintf("channel %d claims spare on link %d", ev.Channel, ev.Link)
	case trace.KindClaimRelease:
		what = fmt.Sprintf("channel %d releases claim on link %d", ev.Channel, ev.Link)
	case trace.KindClaimConvert:
		what = fmt.Sprintf("claim of channel %d on link %d converted to dedicated", ev.Channel, ev.Link)
	case trace.KindPreempt:
		what = fmt.Sprintf("channel %d preempts claim of channel %d on link %d", ev.Channel, ev.Aux, ev.Link)
	case trace.KindMuxFailure:
		what = fmt.Sprintf("multiplexing failure for backup %d", ev.Channel)
	case trace.KindRejoinRequest:
		what = fmt.Sprintf("probing failed channel %d with rejoin-request", ev.Channel)
	case trace.KindRejoin:
		what = fmt.Sprintf("channel %d repaired: sending rejoin", ev.Channel)
	case trace.KindRejoinExpire:
		what = fmt.Sprintf("rejoin timer expired for channel %d: tearing down", ev.Channel)
	case trace.KindClosure:
		what = fmt.Sprintf("closing channel %d", ev.Channel)
	case trace.KindTeardown:
		what = fmt.Sprintf("tearing down connection %d", ev.Conn)
	case trace.KindReplenish:
		what = fmt.Sprintf("connection %d replenished with backup %d (%d hops)", ev.Conn, ev.Channel, ev.Aux)
	case trace.KindRCCFrame:
		what = fmt.Sprintf("rcc frame on link %d (%d controls)", ev.Link, ev.Aux)
	case trace.KindRCCRetransmit:
		what = fmt.Sprintf("rcc retransmits frame %d on link %d", ev.Aux, ev.Link)
	case trace.KindRCCAck:
		what = fmt.Sprintf("rcc pure ack on link %d (cum %d)", ev.Link, ev.Aux)
	case trace.KindDataResume:
		what = fmt.Sprintf("first data of connection %d on channel %d arrives", ev.Conn, ev.Channel)
	default:
		what = ev.String()
	}
	return loc + "  " + what
}
