GO ?= go

.PHONY: build test race vet verify loc bench-check bench-pair chaos chaos-nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# verify is the pre-merge gate: gofmt + vet + build + the full suite under
# the race detector (the parallel sweep worker pool runs even in short mode;
# the root package's tests are the design gates: ownerRules in owner_test.go,
# reach_test.go and settings_test.go), after bench-check, because the root commands never compile bench/ and an
# internal/ signature change is exactly what breaks it, and chaos-nightly,
# which is what "same behaviour" means here. The gofmt step reads bench/ too
# and skips the gitignored .bench_build (exports of other commits, caches).
verify: bench-check chaos-nightly
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
