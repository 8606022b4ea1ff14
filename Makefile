# Tier-1 gate (ROADMAP.md): build + test.
# `make check` adds vet, the race detector (required for internal/obs), and
# `make lint`: cmd/v2vlint's two checks in one run — errwrap (errors.Is,
# never ==; %w in fmt.Errorf) and the hot-path escape budget (every
# //v2v:hotpath function free of unsuppressed heap escapes, by the
# compiler's escape analysis). See docs/STATIC_ANALYSIS.md.
# `make fuzz` runs the native fuzz targets for FUZZTIME each (the checked-in
# corpora under testdata/fuzz always run as part of plain `go test`).
# `make ab W=<workload> [S=<seed>] [N=10] [PARENT=HEAD~1]` measures the
# working tree against a parent revision with the repository's benchmark
# (`go run ./bench`): N alternating pairs, every run appended to
# ab-runs.jsonl, verdict table printed (scripts/ab.sh). `make ab W=all
# CLAIM=<metric>@<workload>` does so for every workload of BENCHMARK.json and
# ends with the cross-workload verdict the benchmark check computes.
# `make loc` prints the non-test Go line count the ROADMAP's line-count
# gates read (everything outside bench/ and testdata/), then the same count
# per package directory (scripts/loc.sh). `make loc BASE=<rev>` prints each
# package's count at <rev> beside the working tree's, with the delta,
# reading <rev> through git without a checkout; CI appends it, with
# BASE=HEAD~1, to the check job's summary.
# `make chaos` runs the fault-injection tests (docs/ROBUSTNESS.md) — seeded
# read faults, corrupt regions, cancellation, panics, retries, pressure
# sheds and cache shrink — as one go test run per seed, for the seeds
# V2V_CHAOS_SEED + 0, 100 and 200 (base default 1). GOFLAGS=-v lists them.

GO ?= go
V2V_CHAOS_SEED ?= 1
FUZZTIME ?= 10s

.PHONY: all build test tier1 vet race lint fuzz check ab loc chaos

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

tier1: build test

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/v2vlint ./...

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/vql/
	$(GO) test -run='^$$' -fuzz=FuzzNewReader -fuzztime=$(FUZZTIME) ./internal/container/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDeflate -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -run='^$$' -fuzz=FuzzStreamReader -fuzztime=$(FUZZTIME) ./internal/media/
	$(GO) test -run='^$$' -fuzz=FuzzBlurInto -fuzztime=$(FUZZTIME) ./internal/raster/

check: tier1 vet race lint

ab:
	W=$(W) S=$(S) N=$(N) PARENT=$(PARENT) CLAIM=$(CLAIM) scripts/ab.sh

loc:
	@scripts/loc.sh $(BASE)

CHAOS_PKGS = ./internal/container/ ./internal/exec/ ./internal/faults/ ./internal/core/ ./internal/media/ ./internal/admit/ ./internal/serve/

chaos:
	@for off in 0 100 200; do \
		seed=$$(( $(V2V_CHAOS_SEED) + $$off )); \
		echo "== V2V_CHAOS_SEED=$$seed =="; \
		V2V_CHAOS_SEED=$$seed $(GO) test -count=1 -run 'Corrupt|Cancel|Transient|Panic|Conceal|Atomic|Injector|DataFault|ReadFaults|Pressure|Shed|Arbiter' $(CHAOS_PKGS) || exit 1; \
	done
