GO ?= go

.PHONY: all build lint fmt-check vet test race torture bench bench-recovery bench-json bench-append slo slowcap serve-smoke clean

all: build lint test

build:
	$(GO) build ./...

# lint = gofmt, the compiler's vet, plus DeNOVA's own analyzers
# (persistcheck, atomcheck, fencecheck, lockcheck, atomfieldcheck — see
# internal/analysis).
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/denova-vet ./...

# fmt-check fails listing every Go file gofmt would rewrite (the
# benchmark's build directory is skipped).
fmt-check:
	@out=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# vet = the same analyzers, but emitting the machine-readable report CI
# uploads as an artifact. Exit 1 on any non-baseline finding (the tree
# carries no baseline: it must stay clean).
vet:
	$(GO) run ./cmd/denova-vet -json ./... > vet-findings.json; st=$$?; cat vet-findings.json; exit $$st

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# torture = the parallel-dedup concurrency gates: the writer/worker/GC
# torture test and all crash sweeps under the race detector, plus the
# worker-scaling and recovery no-regression smokes.
torture:
	$(GO) test -race -run 'Torture|Crash' -count=2 ./internal/...
	$(GO) test -run TestWorkerScalingSmoke -v ./internal/harness/
	$(GO) test -run 'TestRecoverySmoke|TestRecoveryScalingSmoke' -v ./internal/harness/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-recovery = mount-time recovery latency across worker-pool sizes
# on a multi-thousand-file dirty image.
bench-recovery:
	$(GO) test -bench BenchmarkRecovery -benchtime 1x -run '^$$' .

# bench-json = machine-readable benchmark reports: one BENCH_<model>_<workload>.json
# per standard model/workload pair with ops/s, op-latency percentiles
# (p50/p95/p99/max from the obs histograms), pmem counters and dedup savings.
bench-json:
	$(GO) run ./cmd/denova-bench json

# bench-append = the split-write-path microbenchmark: the same append
# stream through the slow five-step CoW path and through staging + batched
# relink, emitting BENCH_*_append.json with fences-per-appended-page and
# printing the fence-reduction factor (must be >= 4x at batch size 8; the
# slo gate enforces that floor).
bench-append:
	$(GO) run ./cmd/denova-bench append

# slo = the performance regression gate: replay the five standard workload
# profiles (fileserver, varmail, webproxy, backup-ingest, multitenant) plus
# the append microbenchmark, write their BENCH_*.json reports, and compare
# ops/s floors and per-op p99 ceilings against the committed slo.json (30%
# noise margin); the append fence-reduction floor (4x) is checked without
# margin. Non-zero exit on any violation. Re-baseline by editing slo.json —
# see DESIGN.md §5.5.
slo:
	$(GO) run ./cmd/denova-bench slo

# slowcap = tail-sampled slow-op capture: replay the multitenant profile
# over the serving layer with wire trace propagation and slow-span capture
# armed, writing SLOW_*.json in Chrome trace-event format (open in
# chrome://tracing or ui.perfetto.dev). CI uploads it next to the SLO run's
# BENCH_*.json so tail regressions ship with the span trees explaining them.
slowcap:
	$(GO) run ./cmd/denova-bench slowcap

# serve-smoke = the network serving layer's end-to-end gate: start
# denova-serve on an ephemeral loopback port, replay a workload profile
# through the wire client (content oracle on every read), scrape /metrics
# for the serve.op.* latency histograms, and assert a clean shutdown —
# plus the loopback profile replays under the race detector.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestServeImageRoundTrip' -v ./cmd/denova-serve/
	$(GO) test -race -run 'TestRunProfileOverServer' -v ./internal/harness/

clean:
	$(GO) clean ./...
