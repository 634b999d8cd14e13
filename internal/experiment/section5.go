package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/sim"
)

// Section5Row is one failure-position measurement of the recovery-delay
// experiment.
type Section5Row struct {
	FailPos      int          // index of the failed primary link (0 = at the source)
	Backups      int          // number of backups configured
	BackupHit    bool         // whether the first backup was failed too (retrial case)
	Gamma        sim.Duration // measured source recovery delay
	Bound        sim.Duration // the paper's Γ bound for this configuration
	DstDisrupt   sim.Duration // largest data-arrival gap at the destination
	MessagesLost uint64       // data messages lost during the outage (Figure 8)

	// Violations are protocol-conformance violations observed on the
	// trial's event stream (empty on a sound run). The checker enforces the
	// same Γ bound the Bound column reports, plus the Figure-4 state
	// machine, claim balance, and healthy-traversal rules.
	Violations []conformance.Violation
}

// Section5Result is the §5.3 recovery-delay bound validation.
type Section5Result struct {
	Hops     int
	DMax     sim.Duration
	Rows     []Section5Row
	AllBound bool
}

// protocolTimingConfig builds the bcpd configuration used for the timing
// experiments: zero detection latency (the paper's bound assumes immediate
// detection) and lossless links, so Γ isolates control-message delays.
func protocolTimingConfig() bcpd.Config {
	cfg := bcpd.DefaultConfig()
	cfg.DetectionLatency = 0
	return cfg
}

// RunSection5 validates the §5.3 recovery-delay bound on the paper's torus:
// a K-hop D-connection with 1 or 2 backups carries traffic, one primary link
// at each position fails, and the measured source recovery delay Γ is
// compared to (K-1)·D_max + 2(b-1)(K-1)·D_max. For the double-backup rows
// the first backup's first link fails simultaneously, exercising the
// activation-retrial term.
func RunSection5(opts Options) Section5Result {
	const hops = 8
	cfg := protocolTimingConfig()
	p := cfg.Conformance(torusCapacityMbps)
	res := Section5Result{
		Hops:     hops,
		DMax:     p.DMax,
		AllBound: true,
	}
	trial := func(backups, pos int, hitBackup bool) {
		row := runSection5Trial(opts, cfg, p, backups, pos, hitBackup)
		res.Rows = append(res.Rows, row)
		res.AllBound = res.AllBound && row.Gamma <= row.Bound
	}
	// Single backup: sweep every failure position.
	for pos := 0; pos < hops; pos++ {
		trial(1, pos, false)
	}
	// Double backups with the first backup also failed: retrial delay.
	for _, pos := range []int{0, hops / 2, hops - 1} {
		trial(2, pos, true)
	}
	return res
}

// runSection5Trial runs the single-connection scenario for one failure
// position under cfg, conformance-checked live with tolerances p: with
// p.DMax > 0 the checker holds the recovery to the Γ bound the table reports.
// The gamma column is that recovery's Γ (crash to the last source switch).
func runSection5Trial(opts Options, cfg bcpd.Config, p conformance.Params, backups, failPos int, hitBackup bool) Section5Row {
	chk := conformance.New(p)
	cfg.Sink = chk
	run, err := section5Scenario(opts, cfg, backups, failPos, hitBackup).Build()
	if err != nil {
		panic(err.Error())
	}
	net, conn := run.Net, run.Conn
	row := Section5Row{
		FailPos:   failPos,
		Backups:   backups,
		BackupHit: hitBackup,
		Bound:     conformance.GammaBound(p.DMax, conn.Primary.Path.Hops(), backups),
	}
	run.Run()
	if rs := chk.Recoveries(); len(rs) > 0 {
		row.Gamma = rs[0].Gamma()
	}
	row.DstDisrupt = net.MaxArrivalGap(conn.ID)
	row.MessagesLost = net.Stats().DataSent - net.Stats().DataDelivered
	row.Violations = chk.Finish()
	return row
}

// section5Scenario is the single-connection scenario of one Section 5 row.
func section5Scenario(opts Options, cfg bcpd.Config, backups, failPos int, hitBackup bool) TraceScenario {
	return TraceScenario{
		FailPos:  failPos,
		Backups:  backups,
		HitFirst: hitBackup,
		FailAt:   sim.Time(100 * time.Millisecond),
		Rate:     1000,
		RunFor:   sim.Duration(2 * time.Second),
		Seed:     opts.Seed + int64(failPos),
		Core:     opts.config(),
		Config:   cfg,
	}
}

// Render prints the Section 5 table, then one line per conformance
// violation (none on a sound run).
func (r Section5Result) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Section 5: recovery-delay bound validation (K=%d hops, D_max=%v per hop, all within bound: %v)",
			r.Hops, time.Duration(r.DMax), r.AllBound),
		Columns: []string{"fail-pos", "backups", "backup-hit", "gamma", "bound", "dst-disruption", "msgs-lost"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("link %d", row.FailPos),
			fmt.Sprintf("%d", row.Backups),
			fmt.Sprintf("%v", row.BackupHit),
			fmt.Sprintf("%v", time.Duration(row.Gamma)),
			fmt.Sprintf("%v", time.Duration(row.Bound)),
			fmt.Sprintf("%v", time.Duration(row.DstDisrupt)),
			fmt.Sprintf("%d", row.MessagesLost),
		)
	}
	out := t.String()
	for _, row := range r.Rows {
		for _, v := range row.Violations {
			out += fmt.Sprintf("violation: link %d, %d backup(s): %v\n", row.FailPos, row.Backups, v)
		}
	}
	return out
}

// SchemeRow is one scheme/failure-position measurement.
type SchemeRow struct {
	Scheme     bcpd.Scheme
	FailPos    int
	Gamma      sim.Duration // source recovery delay (data resumption)
	DstDisrupt sim.Duration
	Lost       uint64

	// Violations from the conformance checker. The Γ rule is disabled here
	// (the paper's bound is derived for scheme-3 timing), but the state
	// machine, claim, and traversal rules apply to every scheme.
	Violations []conformance.Violation
}

// SchemeComparisonResult compares the three channel-switching schemes of
// Figure 5 on recovery delay and destination disruption.
type SchemeComparisonResult struct {
	Hops int
	Rows []SchemeRow
}

// RunSchemeComparison measures schemes 1-3 with failures near the source,
// in the middle, and near the destination of an 8-hop torus connection.
func RunSchemeComparison(opts Options) SchemeComparisonResult {
	const hops = 8
	res := SchemeComparisonResult{Hops: hops}
	for _, scheme := range []bcpd.Scheme{bcpd.Scheme1, bcpd.Scheme2, bcpd.Scheme3} {
		for _, pos := range []int{0, hops / 2, hops - 1} {
			cfg := protocolTimingConfig()
			cfg.Scheme = scheme
			p := cfg.Conformance(torusCapacityMbps)
			p.DMax = 0 // the paper's bound is derived for scheme-3 timing
			row := runSection5Trial(opts, cfg, p, 1, pos, false)
			res.Rows = append(res.Rows, SchemeRow{
				Scheme:     scheme,
				FailPos:    pos,
				Gamma:      row.Gamma,
				DstDisrupt: row.DstDisrupt,
				Lost:       row.MessagesLost,
				Violations: row.Violations,
			})
		}
	}
	return res
}

// Render prints the scheme comparison, then one line per conformance
// violation (none on a sound run).
func (r SchemeComparisonResult) Render() string {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Figure 5 schemes: recovery delay by failure position (K=%d hops)", r.Hops),
		Columns: []string{"scheme", "fail-pos", "gamma", "dst-disruption", "msgs-lost"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("scheme %d", row.Scheme),
			fmt.Sprintf("link %d", row.FailPos),
			fmt.Sprintf("%v", time.Duration(row.Gamma)),
			fmt.Sprintf("%v", time.Duration(row.DstDisrupt)),
			fmt.Sprintf("%d", row.Lost),
		)
	}
	out := t.String()
	for _, row := range r.Rows {
		for _, v := range row.Violations {
			out += fmt.Sprintf("violation: scheme %d, link %d: %v\n", row.Scheme, row.FailPos, v)
		}
	}
	return out
}
