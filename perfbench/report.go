package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"denova"
	"denova/internal/server/wire"
)

// runRecord states the conditions of a run, so later runs compare like
// with like.
type runRecord struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        float64        `json:"seconds"`
	Traced         bool           `json:"traced"`
	Commit         string         `json:"commit"`
	NProc          int            `json:"nproc"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	Device         string         `json:"device_profile"`
	DeviceMB       int64          `json:"device_mb"`
	Loop           string         `json:"loop"`
	Threads        int            `json:"load_goroutines"`
	Connections    int            `json:"connections"`
	CorpusPages    int            `json:"corpus_pages"`
	Percentiles    map[string]pct `json:"percentiles,omitempty"`
	Completed      int64          `json:"ops_completed"`
	OpFailFrac     float64        `json:"op_fail_frac"`
	TraceExhausted bool           `json:"trace_exhausted"`
	SetupS         []float64      `json:"setup_s_reps,omitempty"`
	RecoveryS      []float64      `json:"recovery_s_reps,omitempty"`
	Errors         []string       `json:"errors,omitempty"`
}

func newRecord(spec *workloadSpec, o options) runRecord {
	r := runRecord{
		Workload: spec.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Commit: commit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Device: deviceProfile.Name, DeviceMB: spec.devSize >> 20,
		Loop: "closed", Threads: loadThreads, CorpusPages: spec.corpusFiles * spec.corpusPages,
	}
	if spec.wire {
		r.Connections = loadThreads
	}
	return r
}

// commit is the VCS revision stamped into the binary, when built from a
// git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// tally accumulates attempted and failed ops across phases and checks.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) addPhase(p *phase) {
	for _, w := range p.workers {
		t.attempted += w.attempted
		t.failed += w.failed
		if w.err != nil {
			t.errs = append(t.errs, w.err.Error())
		}
	}
}

// check counts a failed end-of-run check as a failed op.
func (t *tally) check(err error) {
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err.Error())
	}
}

func runUntraced(spec *workloadSpec, o options, out io.Writer) (result, error) {
	rec := newRecord(spec, o)
	e, setupTimes, err := setupMedian(spec, o)
	if err != nil {
		return result{}, err
	}
	rec.SetupS = setupTimes
	p, err := runPhase(e, o, o.seconds, false)
	if err != nil {
		return result{}, err
	}
	var t tally
	t.addPhase(p)
	m := endToEnd(p, &rec)
	m["setup_s"] = metric{median(setupTimes), "s"}
	m["space_amp"] = metric{spaceAmp(p.after.st.Space), "ratio"}
	for _, w := range p.workers {
		w.lat = [numClasses][][]int64{}
	}
	m["dram_mb"] = metric{p.dramMB(e), "MB"}

	t.check(e.verify(e.fs, p.workers))
	rcv, err := e.crashRecover(o, p.workers)
	t.check(err)
	rec.RecoveryS = rcv.wall
	m["recovery_s"] = metric{median(rcv.wall), "s"}
	return finish(out, rec, t, m, nil), nil
}

// latency adds the q-th percentile of each latency class, as
// <class>_<label>_us, and records its sample count.
func latency(m map[string]metric, p *phase, rec *runRecord, label string, q float64) {
	if rec.Percentiles == nil {
		rec.Percentiles = map[string]pct{}
	}
	for c := 0; c < numClasses; c++ {
		name := classNames[c] + "_" + label + "_us"
		v := windowedPercentile(p.workers, c, q)
		m[name] = metric{v.Value, "us"}
		rec.Percentiles[name] = v
	}
}

// endToEnd computes the untraced metrics every workload reports.
func endToEnd(p *phase, rec *runRecord) map[string]metric {
	m := map[string]metric{}
	m["ops_per_s"] = metric{opsPerSec(p), "ops/s"}
	m["mb_per_s"] = metric{float64(p.bytesWritten()) / 1e6 / (p.wall + p.sync).Seconds(), "MB/s"}
	latency(m, p, rec, "p50", 0.50)
	scr := make([]float64, len(p.scrapeNs))
	for i, ns := range p.scrapeNs {
		scr[i] = float64(ns) / 1e6
	}
	m["scrape_ms"] = metric{median(scr), "ms"}
	rec.Completed, rec.TraceExhausted = p.completed(), p.exhausted
	return m
}

func spaceAmp(s denova.SpaceStats) float64 {
	if s.LogicalPages == 0 {
		return 0
	}
	return float64(s.PhysicalPages) / float64(s.LogicalPages)
}

// runTraced pairs an untraced phase with a traced one, each half the run
// length on a fresh set-up, and reports the per-layer metrics from the
// traced phase. Their difference is the tracing overhead. The untraced
// phase also gives the p99 latencies: on the shared reference VM, CPU
// steal moves them by up to a factor of two between runs, too much for an
// end-to-end bound, so they are reported here, unbounded.
func runTraced(spec *workloadSpec, o options, out io.Writer) (result, error) {
	rec := newRecord(spec, o)
	half := o.seconds / 2
	var t tally

	base, tails, err := untracedHalf(spec, o, half, &t, &rec)
	if err != nil {
		return result{}, err
	}

	e, err := newEnv(spec, o.seed, half, denova.TraceFine)
	if err != nil {
		return result{}, err
	}
	p, err := runPhase(e, o, half, true)
	if err != nil {
		return result{}, err
	}
	t.addPhase(p)
	rec.Completed, rec.TraceExhausted = p.completed(), p.exhausted
	m := perLayer(e, p)
	for name, v := range tails {
		m[name] = v
	}
	m["obs.trace_overhead_frac"] = metric{1 - opsPerSec(p)/base, "ratio"}

	spans, cutoff := spansOf(e.fs.Tracer().Events())
	for _, w := range p.workers {
		if lt, ok := w.tgt.(*localTarget); ok {
			spans = append(spans, lt.spans...)
		}
	}
	serverSpans(m, spans, cutoff)
	budgets := latencyBudgets(spec, spans, cutoff)

	t.check(e.verify(e.fs, p.workers))
	rcv, err := e.crashRecover(o, p.workers)
	t.check(err)
	rec.RecoveryS = rcv.wall
	recoveryPasses(m, rcv.passes)
	return finish(out, rec, t, m, budgets), nil
}

// untracedHalf runs the untraced phase of a traced invocation and returns
// its throughput and p99 latencies. Its device is garbage once it returns.
func untracedHalf(spec *workloadSpec, o options, seconds float64, t *tally, rec *runRecord) (float64, map[string]metric, error) {
	e, err := newEnv(spec, o.seed, seconds, denova.TraceOff)
	if err != nil {
		return 0, nil, err
	}
	p, err := runPhase(e, o, seconds, false)
	if err != nil {
		return 0, nil, err
	}
	t.addPhase(p)
	t.check(e.verify(e.fs, p.workers))
	e.fs.UnmountDirty()
	tails := map[string]metric{}
	latency(tails, p, rec, "p99", 0.99)
	return opsPerSec(p), tails, nil
}

// opsPerSec is a phase's throughput, the figure the tracing overhead is
// taken against.
func opsPerSec(p *phase) float64 { return float64(p.completed()) / p.wall.Seconds() }

// perLayer computes the per-layer metrics from the counters and
// histograms the layers publish, as deltas over the timed phase.
func perLayer(e *env, p *phase) map[string]metric {
	b, a := p.before, p.after
	m := map[string]metric{}
	ops := float64(max(1, p.completed()))
	window := (p.wall + p.sync).Seconds()
	h := func(name string) histDelta { return deltaOf(b.met, a.met, name) }

	var calls []int64
	for _, w := range p.workers {
		for c := 0; e.spec.wire && c < numClasses; c++ {
			calls = append(calls, concat(w.lat[c]...)...)
		}
	}
	m["client.call_p50_us"] = metric{percentile(calls, 0.50).Value, "us"}
	m["client.call_p99_us"] = metric{percentile(calls, 0.99).Value, "us"}
	shed := a.met.Counters["serve.shed"] - b.met.Counters["serve.shed"]
	admitted := a.met.Counters["serve.admitted"] - b.met.Counters["serve.admitted"]
	m["server.shed_frac"] = metric{ratio(shed, shed+admitted), "ratio"}

	m["denova.sync_ms"] = metric{p.sync.Seconds() * 1e3, "ms"}
	m["denova.mkfs_s"] = metric{e.mkfsDur.Seconds(), "s"}
	m["denova.preload_s"] = metric{e.preloadDur.Seconds(), "s"}
	m["workload.gen_s"] = metric{e.genDur.Seconds(), "s"}

	m["nova.write_p50_us"] = metric{h("nova.write").quantileUs(0.5), "us"}
	m["nova.read_p50_us"] = metric{h("nova.read").quantileUs(0.5), "us"}
	m["nova.truncate_p50_us"] = metric{h("nova.truncate").quantileUs(0.5), "us"}
	for _, s := range []string{"alloc", "fill", "log_commit", "radix", "reclaim"} {
		m["nova.write."+s+"_us"] = metric{h("nova.write." + s).meanUs(), "us"}
	}
	fs0, fs1 := b.st.FS, a.st.FS
	m["nova.blocks_freed_per_op"] = metric{float64(fs1.BlocksFreed-fs0.BlocksFreed) / ops, "1/op"}
	m["nova.blocks_skipped_per_op"] = metric{float64(fs1.BlocksSkipped-fs0.BlocksSkipped) / ops, "1/op"}
	m["nova.gc_log_pages_per_op"] = metric{float64(fs1.GCLogPages-fs0.GCLogPages) / ops, "1/op"}
	m["nova.gc_thorough"] = metric{float64(fs1.GCThorough - fs0.GCThorough), "count"}

	d0, d1 := b.st.Dedup, a.st.Dedup
	scanned := d1.PagesScanned - d0.PagesScanned
	stale := d1.PagesStale - d0.PagesStale
	m["dedup.busy_frac"] = metric{float64(busyNs(a.st)-busyNs(b.st)) / 1e9 / (window * float64(runtime.GOMAXPROCS(0))), "ratio"}
	m["dedup.dup_frac"] = metric{ratio(d1.PagesDuplicate-d0.PagesDuplicate, scanned), "ratio"}
	m["dedup.stale_frac"] = metric{ratio(stale, scanned+stale), "ratio"}
	m["dedup.queue_wait_p50_us"] = metric{h("dedup.queue_wait").quantileUs(0.5), "us"}
	m["dedup.queue_wait_p99_us"] = metric{h("dedup.queue_wait").quantileUs(0.99), "us"}
	m["dedup.queue_peak"] = metric{float64(a.st.Queue.Peak), "count"}
	m["dedup.process_p50_us"] = metric{h("dedup.process").quantileUs(0.5), "us"}
	for _, s := range []string{"revalidate", "fingerprint", "fact_txn", "remap"} {
		m["dedup.stage."+s+"_us"] = metric{h("dedup.stage." + s).meanUs(), "us"}
	}

	f0, f1 := b.st.Fact, a.st.Fact
	lookups := f1.Lookups - f0.Lookups
	m["fact.walk_per_lookup"] = metric{ratio(f1.WalkEntries-f0.WalkEntries, lookups), "ratio"}
	m["fact.dup_hit_frac"] = metric{ratio(f1.DupHits-f0.DupHits, lookups), "ratio"}
	m["fact.begin_txn_p50_us"] = metric{h("fact.begin_txn").quantileUs(0.5), "us"}
	m["fact.commit_batch_p50_us"] = metric{h("fact.commit_batch").quantileUs(0.5), "us"}
	m["fact.decref_p50_us"] = metric{h("fact.decref").quantileUs(0.5), "us"}
	m["fact.decrefs_per_op"] = metric{float64(f1.DecRefs-f0.DecRefs) / ops, "1/op"}
	m["fact.removes_per_op"] = metric{float64(f1.Removes-f0.Removes) / ops, "1/op"}
	m["fact.reorders"] = metric{float64(f1.Reorders - f0.Reorders), "count"}

	dv := a.dev.Sub(b.dev)
	deviceS := float64(dv.SimLatencyNs) / 1e9
	m["pmem.device_s"] = metric{deviceS, "s"}
	m["pmem.device_frac"] = metric{deviceS / (loadThreads * window), "ratio"}
	m["pmem.fences_per_op"] = metric{float64(dv.Fences) / ops, "1/op"}
	m["pmem.flush_lines_per_op"] = metric{float64(dv.FlushedLines) / ops, "1/op"}
	m["pmem.nt_lines_per_op"] = metric{float64(dv.NTLines) / ops, "1/op"}
	m["pmem.read_lines_per_op"] = metric{float64(dv.ReadLines) / ops, "1/op"}
	m["pmem.write_amp"] = metric{ratio(dv.PersistedLines()*64, p.bytesWritten()), "ratio"}

	var pages []float64
	for _, n := range p.scrapePages {
		pages = append(pages, float64(n))
	}
	m["obs.scrape_pages"] = metric{median(pages), "count"}
	m["runtime.alloc_bytes_per_op"] = metric{float64(a.totalAlloc-b.totalAlloc) / ops, "B/op"}
	m["runtime.gc_pause_ms"] = metric{float64(a.pauseNs-b.pauseNs) / 1e6, "ms"}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverSpans derives the serving layer's metrics from the serve.* spans
// in the retained trace window (all zero in process).
func serverSpans(m map[string]metric, spans []span, cutoff int64) {
	durs := map[string][]int64{}
	for _, s := range spans {
		if s.start >= cutoff && strings.HasPrefix(s.name, "serve.") {
			durs[s.name] = append(durs[s.name], s.dur)
		}
	}
	exec := percentile(durs["serve.exec"], 0.5).Value
	m["server.exec_p50_us"] = metric{exec, "us"}
	tax := 0.0
	if exec > 0 {
		tax = m["client.call_p50_us"].Value - exec
	}
	m["server.tax_p50_us"] = metric{tax, "us"}
	m["server.admission_us"] = metric{mean(durs["serve.admission"]) / 1e3, "us"}
	m["server.queue_wait_us"] = metric{mean(durs["serve.queue_wait"]) / 1e3, "us"}
	m["server.reply_us"] = metric{mean(durs["serve.reply"]) / 1e3, "us"}
}

// latencyBudgets splits serve reads and writes (rooted at client.call) or
// in-process writes (rooted at the benchmark's span around File.WriteAt)
// into layer self times.
func latencyBudgets(spec *workloadSpec, spans []span, cutoff int64) []budget {
	if spec.wire {
		call := func(op wire.Op) func(span) bool {
			return func(s span) bool { return s.name == "client.call" && s.arg == uint64(op) }
		}
		const rem = "client.call self time: client encode/decode, wire and scheduling, not covered by a server span"
		return []budget{
			buildBudget("serve.write", call(wire.OpWrite), spans, cutoff, rem),
			buildBudget("serve.read", call(wire.OpRead), spans, cutoff, rem),
		}
	}
	const rem = "benchmark span self time, not covered by a nova span: denova.File dispatch and the wait for the inode lock"
	return []budget{
		buildBudget("write", func(s span) bool { return s.name == "bench.write" }, spans, cutoff, rem),
		buildBudget("read", func(s span) bool { return s.name == "bench.read" }, spans, cutoff, rem),
	}
}

// recoveryPasses maps the power-cut mount's timeline onto the per-layer
// recovery metrics.
func recoveryPasses(m map[string]metric, passes []denova.RecoveryPass) {
	names := map[string]string{
		"inode-scan": "nova.recover.inode-scan_ms", "namespace": "nova.recover.namespace_ms",
		"log-replay": "nova.recover.log-replay_ms", "alloc-rebuild": "nova.recover.alloc-rebuild_ms",
		"repairs": "nova.recover.repairs_ms", "log-gc": "nova.recover.log-gc_ms",
		"dedup-resume": "dedup.recover.resume_ms", "zero-uc": "dedup.recover.zero-uc_ms",
		"dwq-rebuild":    "dedup.recover.dwq-rebuild_ms",
		"fact-structure": "fact.recover.structure_ms", "fact-scrub": "fact.recover.scrub_ms",
	}
	for _, name := range names {
		m[name] = metric{0, "ms"}
	}
	var lines int64
	for _, p := range passes {
		if name, ok := names[p.Name]; ok {
			m[name] = metric{m[name].Value + p.Wall.Seconds()*1e3, "ms"}
		}
		lines += p.Pmem.ReadLines
	}
	m["pmem.recover.read_lines"] = metric{float64(lines), "count"}
}

// finish prints the report and builds the result line.
func finish(out io.Writer, rec runRecord, t tally, m map[string]metric, budgets []budget) result {
	rec.OpFailFrac = ratio(t.failed, max(1, t.attempted))
	rec.Errors = t.errs
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(out, "perfbench %s: %s metrics (seed %d, %gs)\n", rec.Workload, kind, rec.Seed, rec.Seconds)
	for _, name := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(out, "  %-34s %14.4f %s\n", "op_fail_frac", rec.OpFailFrac, "ratio")
	for _, b := range budgets {
		line, _ := json.Marshal(b)
		fmt.Fprintf(out, "budget: %s\n", line)
	}
	line, _ := json.Marshal(rec)
	fmt.Fprintf(out, "record: %s\n", line)
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}
