# stwave — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet test race bench bench-go bench-smoke bench-diff reproduce examples check fmt-check lint docscheck clean

all: build vet test check

# Fast correctness gate: static checks (vet, gofmt, the stlint analyzer
# suite — which self-lints internal/lint along with everything else),
# race-detector runs of the packages with real concurrency (the
# HTTP server, the shared container reader and fault-injection wrapper,
# the burst buffer, the entropy/sparse codecs, the streaming ingest
# engine with its backpressure policies, the parallel
# transform/threshold stages with their serial-equivalence property
# tests, the synth/tornado lattice sampler that splits z-planes over
# goroutines, and the lint suite itself, whose dogfooding test shells
# out to go list and replays every analyzer over the whole module), a
# GOMAXPROCS=1 smoke of the same parallel stages — survivor selection
# and the survivor encoders included — ingest engine, sampler and
# server decode path (worker budgets must degrade to clean sequential
# execution; -count=1 because the test cache does not key on
# GOMAXPROCS), and short fuzz smokes of the container index parser, the
# 1D wavelet round-trip at both precisions, the window deserializer
# with a reconstruction query, the record-frame codec, the gap-marker codec,
# the level-offset table parser of the progressive (v4) layout, the
# entropy coder round-trip, the coefficient codec block decoders,
# survivor selection against the serial threshold, and every codec's
# survivor encoder against its dense encode.
check: vet fmt-check lint docscheck bench-smoke
	$(GO) test -race ./internal/server ./internal/storage ./internal/compress ./internal/faultio ./internal/transform ./internal/core ./internal/par ./internal/codec ./internal/entropy ./internal/ingest ./internal/lint ./internal/sim/synth ./internal/sim/tornado
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/par ./internal/transform ./internal/compress ./internal/core ./internal/codec ./internal/entropy ./internal/ingest ./internal/server ./internal/sim/synth ./internal/sim/tornado
	$(GO) test -run=NONE -fuzz=FuzzOpenContainer -fuzztime=10s ./internal/storage
	$(GO) test -run=NONE -fuzz='FuzzWaveletRoundtrip$$' -fuzztime=5s ./internal/wavelet
	$(GO) test -run=NONE -fuzz=FuzzWaveletRoundtrip32 -fuzztime=5s ./internal/wavelet
	$(GO) test -run=NONE -fuzz=FuzzReadCompressedWindow -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzRecordFrame -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzGapMarker -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzLevelTable -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzEntropyRoundtrip -fuzztime=5s ./internal/entropy
	$(GO) test -run=NONE -fuzz=FuzzCodecDecode -fuzztime=5s ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzSelectSurvivors -fuzztime=5s ./internal/compress
	$(GO) test -run=NONE -fuzz=FuzzEncodeSurvivors -fuzztime=5s ./internal/codec

# Domain-aware static analysis: ten analyzers proving the pipeline's
# numeric, I/O, taint, scratch-pool, context, and worker-budget
# invariants plus godoc coverage of the operator-facing API surface
# (see internal/lint). Zero findings is the merge bar; suppress
# deliberate cases with //stlint:ignore + reason, and the driver flags
# any suppression that has gone stale.
lint:
	$(GO) run ./cmd/stlint ./...

# Docs-drift greplint: every flag the operator docs mention must exist in
# its binary (parsed from the cmd/* flag registrations). Undocumented
# flags are listed as warnings, not failures.
docscheck:
	$(GO) run ./cmd/docscheck

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Machine-readable pipeline benchmark suite. Writes BENCH_pipeline.json
# in the stable stwave-bench/v1 schema ({name, iters, ns_per_op,
# mb_per_s, allocs_per_op} per benchmark — see internal/perf).
bench:
	$(GO) run ./cmd/stbench perf -out BENCH_pipeline.json
	$(GO) run ./cmd/stbench perf -validate BENCH_pipeline.json

# Smoke of the perf harness: one iteration per benchmark, schema-validate
# the output, leave no file behind. Part of make check.
bench-smoke:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/stbench perf -quick -q -out $$tmp && \
	$(GO) run ./cmd/stbench perf -validate $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc

# Bench-regression gate: re-measure the pipeline suite (best of 3
# passes per benchmark, so transient neighbour load can't trip the gate)
# and fail when any benchmark's ns/op regresses more than 10% against
# the committed baseline. Run `make bench` first to refresh the baseline
# deliberately.
bench-diff:
	$(GO) run ./cmd/stbench compare -baseline BENCH_pipeline.json -max-regress 10%

# One benchmark iteration per paper table/figure plus ablations
# (the testing-package benchmarks; human-readable output).
bench-go:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Regenerate every figure and table of the paper (plus extensions).
reproduce:
	$(GO) run ./cmd/stbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/burstbuffer
	$(GO) run ./examples/progressive
	$(GO) run ./examples/isosurface
	$(GO) run ./examples/pathlines
	$(GO) run ./examples/serve

clean:
	$(GO) clean ./...
	rm -rf stbench-out
