GO ?= go

.PHONY: build test race vet one-owner one-heap one-key one-recovery one-muxfail one-value one-reach one-decision one-trial one-harness one-wait verify loc bench-check bench-pair chaos chaos-nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# one-owner fails when D^RCC_max is re-derived outside bcpd.Config.HopBound:
# the arithmetic cannot be written without RCC.RMax. bench/ keeps its copy
# until a no-claim benchmark PR (ROADMAP 1(c)).
one-owner:
	! grep -rnE 'RCC\.RMax' --include='*.go' internal cmd bcp.go examples | grep -vE '^internal/(bcpd|rcc)/'

# one-heap fails when a second timer heap appears: sim.TimerArena is the one
# queue under both clocks (sim.Engine and realtime.Runtime each own one), and
# the container/heap oracle in sim/arena_test.go covers only that copy.
one-heap:
	! grep -rlE 'func \(.*\) siftDown\(' --include='*.go' internal cmd | grep -v '^internal/sim/arena.go$$'

# one-key fails when an event key is reserved, or an event queued under a
# reserved key, outside internal/sim and internal/sched: sched.Link is the one
# caller (a packet hop's transmit-done is queued only when something waits on
# it), so ROADMAP 6(a)'s seeded tie-break has one reserving caller to re-key.
one-key:
	! grep -rnE '(ReserveKey|AtKey|ReserveSeq|AddKeyed)\(' --include='*.go' --exclude='*_test.go' internal cmd bcp.go examples | grep -vE '^internal/(sim|sched)/'

# one-recovery fails when a recovery is derived outside trace.Recoveries: a
# crash-to-switch span cannot be written without the source's switch log or a
# remembered crash instant. bcpd owns the log; bench/ keeps its own copy until
# a no-claim benchmark PR (ROADMAP 1(c)).
one-recovery:
	! grep -rnE 'SourceSwitches\(|lastCrash' --include='*.go' --exclude='*_test.go' internal cmd | grep -vE '^internal/(bcpd/|trace/recovery\.go:)'

# one-muxfail fails when a multiplexing failure is recorded outside the
# resource plane: core.Manager's claim decides every claim and emits the one
# KindMuxFailure, naming the link that ran out of spare. trace declares the
# kind, conformance checks it and bcptrace renders it.
one-muxfail:
	! grep -rn 'KindMuxFailure' --include='*.go' --exclude='*_test.go' internal cmd bcp.go examples | grep -vE '^(internal/(trace|core|conformance)|cmd/bcptrace)/'

# one-harness fails when a checked run is assembled outside bcpd.NewChecked:
# a conformance checker or a flight recorder built anywhere else is a harness
# whose violations carry no events. bench/ keeps its own checker until a
# no-claim benchmark PR (ROADMAP 1(c)).
one-harness:
	! grep -rnE 'conformance\.New\(|trace\.NewFlightRecorder\(' --include='*.go' --exclude='*_test.go' internal cmd bcp.go | grep -v '^internal/bcpd/checked\.go:'

# one-value fails when a field of a configuration struct is never written by
# product code outside its Default* constructor and is not listed with a
# reason: a setting only ever left at one value is a constant. The structs
# are core.Config, routing.Constraint, bcpd.Config, bcpd.ChaosParams,
# bcpd.LinkChaos, experiment.StormWideConfig, experiment.Options,
# experiment.TraceScenario, chaos.Options, chaos.RunOptions, chaos.TopoSpec,
# chaos.ConnSpec, chaos.ChaosSpec, rtchan.TrafficSpec, rcc.Params,
# conformance.Params and workload.HotSpotConfig (settingStructs in
# settings_test.go). The test type-checks the non-test Go under internal/,
# cmd/ and bench/.
one-value:
	$(GO) test -count=1 -run '^TestConfigFieldsHaveProductSetters$$' .

# one-reach fails when a declaration in non-test Go is reached by no
# program and is not listed with a reason (reachExempt in reach_test.go):
# code only tests call is shipped, read and kept up like product code. The
# roots are the mains of the commands README.md promises and of the
# examples, all of bench/, and the facade's exports with the methods of the
# types it aliases; a call through an interface reaches every method of
# that name.
one-reach:
	$(GO) test -count=1 -run '^TestEveryDeclarationIsReached$$' .

# one-decision fails when the Π decision is made in floating point outside
# the threshold table: simS and its (1-λ)^k table may be used only by
# internal/core/sig.go's table builder (the piThresholds type, newPiThresholds,
# newQpowTab, simS itself and thrRow), so every admission decision is the
# integer muxDecide. Tests are exempt: they hold the table to the reference.
one-decision:
	@awk 'FNR == 1 { fn = "" } /^(func|type) / { fn = $$0 } \
		/simS\(|qpowTab/ && !(FILENAME == "internal/core/sig.go" && fn ~ /^(type piThresholds |func newPiThresholds\(|func newQpowTab\(|func \(p \*NetworkPlan\) (simS|thrRow)\()/) \
		{ print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit bad }' \
		$$(find internal cmd examples ./*.go -name '*.go' ! -name '*_test.go')

# one-trial fails when the failure-trial walk is entered anywhere but its two
# doors: TrialView.Trial, the one read entry point (a serial caller holds one
# view), and Manager.apply, which runs the walk under the write lock over its
# own scratch before making the winners' claims real. Scoped to functions, as
# one-decision is; a method value counts as a call.
one-trial:
	@awk 'FNR == 1 { fn = "" } /^(func|type) / { fn = $$0 } \
		/\.trial([^A-Za-z0-9_]|$$)/ && fn !~ /^func \((v \*TrialView\) Trial|m \*Manager\) apply)\(/ \
		{ print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit bad }' \
		$$(find internal cmd examples ./*.go -name '*.go' ! -name '*_test.go')

# one-wait fails when a thread sleeps on the kernel timer, or sets its timer
# slack, outside internal/realtime/wait_linux.go: the wall-clock stack waits
# for a deadline only through realtime.Waiter, whose last stretch is that
# file's nanosleep at 1 ns slack. Tests and bench/ included.
one-wait:
	! grep -rnE 'Nanosleep\(|PR_SET_TIMERSLACK' --include='*.go' --exclude-dir=.bench_build --exclude-dir=.git . | grep -v '^\./internal/realtime/wait_linux\.go:'

# verify is the pre-merge gate: gofmt + vet + build + the full suite under
# the race detector (the parallel sweep worker pool runs even in short mode),
# after bench-check, because the root commands never compile bench/ and an
# internal/ signature change is exactly what breaks it, and chaos-nightly,
# which is what "same behaviour" means here. The gofmt step reads bench/ too
# and skips the gitignored .bench_build (exports of other commits, caches).
verify: bench-check one-owner one-heap one-key one-recovery one-muxfail one-value one-reach one-decision one-trial one-harness one-wait chaos-nightly
	@out=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# loc prints the sizes ROADMAP and CHANGES.md quote, so they are always
# counted the same way: the product's non-test Go (internal/, cmd/ and the
# root package), its tests, the benchmark module and the example programs in
# lines, and DESIGN.md in bytes.
loc:
	@echo "non-test Go, internal/ cmd/ root: $$(find internal cmd ./*.go -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "*_test.go, internal/ cmd/ root:   $$(find internal cmd ./*.go -name '*_test.go' | xargs cat | wc -l)"
	@echo "bench/:                           $$(find bench -name '*.go' | xargs cat | wc -l)"
	@echo "examples/:                        $$(find examples -name '*.go' | xargs cat | wc -l)"
	@echo "DESIGN.md bytes:                  $$(wc -c < DESIGN.md)"

# bench-check vets and short-tests the repository benchmark. bench/ is a Go
# module of its own, so `go build ./... && go test ./...` at the root never
# compiles it; this is where an internal/ API change that breaks the harness
# fails, instead of at the benchmark driver's build.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# bench-pair is the same-box A/B a performance claim rests on: BASE's
# committed files (exported under .bench_build/pair/) against the working
# tree, PAIRS alternating runs of the driver's own command on WORKLOAD, then
# per-metric median [q1,q3], ratio, wins and verdict (cmd/benchpair). JSON=FILE
# also appends the report, every run included, to FILE's "runs" list.
BASE ?= HEAD
WORKLOAD ?= establish_churn
PAIRS ?= 10
JSON ?=
bench-pair:
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) $(if $(JSON),-json $(JSON))

# chaos is the CI smoke budget: a fixed seed, a small episode count, and
# the seeded-bug catch run under the race detector. CHAOS_SEED/CHAOS_EPISODES
# override the defaults. chaos-nightly is 1000 episodes at seed 1 (a few
# seconds, zero violations), run by `make verify` and by CI's chaos-smoke
# job: the bit-identity gate for "same behaviour". The run digest covers
# every episode's schedule, event stream and verdict, and the target fails
# when it is not the pinned one. A change that means to move behaviour
# re-pins it and says why.
CHAOS_SEED ?= 1
CHAOS_EPISODES ?= 40
chaos:
	$(GO) test -race -count=1 -run 'TestModelCheck|TestSabotageCaught|TestGolden' \
		./internal/chaos -chaos.seed=$(CHAOS_SEED) -chaos.episodes=$(CHAOS_EPISODES)

CHAOS_NIGHTLY_DIGEST = 04637abcbb6176ef9e90766caed724ee9c4c944eb8dfe16a052759407dbb94a1
chaos-nightly:
	$(GO) run ./cmd/bcpchaos -seed 1 -episodes 1000 -v -want $(CHAOS_NIGHTLY_DIGEST)
