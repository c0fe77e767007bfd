package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"denova"
	"denova/internal/nova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/workload"
)

func TestBenchJSONSmoke(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Spec{Name: "smoke", FileSize: 256 << 10, NumFiles: 4, DupRatio: 0.5, Seed: 1}
	rep, path, err := RunBenchJSON(
		FSConfig{Mode: denova.ModeImmediate}, spec,
		WriteOptions{Profile: pmem.ProfileZero}, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_denova-immediate_smoke.json"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got BenchReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("BENCH file is not valid JSON: %v", err)
	}
	if got.OpsPerSec <= 0 || got.MBps <= 0 {
		t.Errorf("throughput not positive: ops/s=%v MB/s=%v", got.OpsPerSec, got.MBps)
	}
	if got.Savings <= 0 {
		t.Errorf("savings = %v for a 50%%-duplicate workload", got.Savings)
	}
	if got.Pmem.NTLines == 0 || got.Pmem.Fences == 0 {
		t.Errorf("pmem counters empty: %+v", got.Pmem)
	}
	for _, op := range []string{"nova.write", "dedup.process", "fact.begin_txn"} {
		l, ok := got.Latency[op]
		if !ok || l.Count == 0 {
			t.Errorf("latency for %q missing from report", op)
			continue
		}
		if l.P50Ns <= 0 || l.P95Ns < l.P50Ns || l.P99Ns < l.P95Ns || l.MaxNs < l.P99Ns {
			t.Errorf("latency for %q not monotone: %+v", op, l)
		}
	}
	if rep.Name != "denova-immediate_smoke" {
		t.Errorf("report name = %q", rep.Name)
	}
}

// TestRunBenchJSONFailurePaths covers the error contract the SLO gate
// leans on: an unwritable output dir, an empty spec, and a zero-op workload
// must all surface as errors, never as a silently empty report.
func TestRunBenchJSONFailurePaths(t *testing.T) {
	t.Parallel()
	cfg := FSConfig{Mode: denova.ModeImmediate}
	okSpec := workload.Spec{Name: "fp", FileSize: 4096, NumFiles: 2, Seed: 1}
	opts := WriteOptions{Profile: pmem.ProfileZero}

	t.Run("unwritable dir", func(t *testing.T) {
		t.Parallel()
		_, _, err := RunBenchJSON(cfg, okSpec, opts, filepath.Join(t.TempDir(), "does", "not", "exist"), "")
		if err == nil {
			t.Fatal("missing output dir accepted")
		}
	})
	t.Run("empty spec", func(t *testing.T) {
		t.Parallel()
		if _, _, err := RunBenchJSON(cfg, workload.Spec{}, opts, t.TempDir(), ""); err == nil {
			t.Fatal("zero-value spec accepted")
		}
	})
	t.Run("zero-op workload", func(t *testing.T) {
		t.Parallel()
		spec := workload.Spec{Name: "empty", FileSize: 4096, NumFiles: 0}
		if _, _, err := RunBenchJSON(cfg, spec, opts, t.TempDir(), ""); err == nil {
			t.Fatal("zero-file workload accepted")
		}
	})
	t.Run("nameless spec with override is fine", func(t *testing.T) {
		t.Parallel()
		spec := workload.Spec{FileSize: 4096, NumFiles: 2, Seed: 3}
		_, path, err := RunBenchJSON(cfg, spec, opts, t.TempDir(), "override")
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != "BENCH_override.json" {
			t.Errorf("path = %s", path)
		}
	})
}

// TestBenchReportGolden pins the BENCH_*.json schema byte for byte against
// testdata/bench_golden.json. The SLO gate keys on these field names
// ("ops_per_sec", "profile", "latency.<op>.p99_ns", ...); if this test
// fails because a field was renamed, slo.json and the gate must move in the
// same commit.
func TestBenchReportGolden(t *testing.T) {
	t.Parallel()
	rep := BenchReport{
		Name: "denova-immediate_fileserver", Model: "DeNOVA-Immediate",
		Workload: "fileserver", Profile: "fileserver",
		GeneratedAt: "2026-01-02T03:04:05Z",
		Threads:     2, Files: 40, Bytes: 1 << 20,
		ElapsedNs: 5_000_000, DrainNs: 1_000_000,
		OpsPerSec: 240000, MBps: 200, Savings: 0.25, QueuePeak: 64,
		TotalOps: 1200,
		OpCounts: map[string]int64{"create": 60, "read": 400, "write": 300},
		Pmem: PmemCounters{
			FlushedLines: 10, NTLines: 20, Fences: 30, ReadBytes: 40, WrittenBytes: 50,
		},
		Latency: map[string]LatencySummary{
			"op.read":    {Count: 400, P50Ns: 1000, P95Ns: 2000, P99Ns: 3000, MaxNs: 4000},
			"nova.write": {Count: 300, P50Ns: 1500, P95Ns: 2500, P99Ns: 3500, MaxNs: 4500},
		},
	}
	dir := t.TempDir()
	rep.Name = "golden"
	path, err := writeReport(rep, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bench_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCH schema drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestBenchSlug(t *testing.T) {
	cases := map[string]string{
		"DeNOVA-Immediate":          "denova-immediate",
		"DeNOVA-Delayed(750,20000)": "denova-delayed-750-20000",
		"Baseline NOVA":             "baseline-nova",
		"dup50-4m":                  "dup50-4m",
	}
	for in, want := range cases {
		if got := benchSlug(in); got != want {
			t.Errorf("benchSlug(%q) = %q, want %q", in, got, want)
		}
	}
	if s := benchSlug("a/b\\c d"); strings.ContainsAny(s, "/\\ ") {
		t.Errorf("slug %q still contains filename-hostile characters", s)
	}
}

// TestTracingOffOverheadGate checks the observability acceptance gate: with
// tracing off, the always-on op-level instrumentation (two clock reads plus
// a few atomic adds per op) must stay within noise of a completely
// uninstrumented file system. The third variant additionally arms the
// slow-span capture, covering the span-instrumented build: every span
// helper on the write path must bail on TraceOff's single atomic load even
// when a capture is configured. All variants run the identical bare-NOVA
// write loop on a zero-latency device, interleaved across rounds so heap
// and CPU-boost drift spread evenly; medians are compared with a generous
// band because CI wall clocks are noisy.
func TestTracingOffOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("wall-clock gate skipped in -short")
	}
	const (
		pages  = 2000
		rounds = 5

		bareFS          = iota - 2 // no observer at all
		traceOff                   // observer, TraceOff
		traceOffCapture            // observer, TraceOff, slow-span capture armed
	)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	run := func(variant int) time.Duration {
		dev := pmem.New(64<<20, pmem.ProfileZero)
		nfs, err := nova.Mkfs(dev, 64)
		if err != nil {
			t.Fatal(err)
		}
		if variant != bareFS {
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(obs.TraceOff, 1, obs.DefaultTraceEvents)
			if variant == traceOffCapture {
				tracer.SetCapture(obs.NewSlowCapture(time.Millisecond, 8))
			}
			nfs.SetObserver(nova.NewObserver(reg, tracer, false))
		}
		in, err := nfs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < pages; i++ {
			if _, err := nfs.Write(in, uint64(i%256)*4096, data, nova.FlagNone); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	run(traceOff) // warmup
	var bare, off, cap []time.Duration
	for r := 0; r < rounds; r++ {
		bare = append(bare, run(bareFS))
		off = append(off, run(traceOff))
		cap = append(cap, run(traceOffCapture))
	}
	med := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	mb, mo, mc := med(bare), med(off), med(cap)
	t.Logf("bare median %v, TraceOff median %v (%.1f%%), TraceOff+capture median %v (%.1f%%)",
		mb, mo, float64(mo-mb)/float64(mb)*100, mc, float64(mc-mb)/float64(mb)*100)
	if mo > mb*3/2 {
		t.Errorf("TraceOff instrumentation overhead out of noise band: bare %v vs instrumented %v", mb, mo)
	}
	if mc > mb*3/2 {
		t.Errorf("TraceOff span+capture overhead out of noise band: bare %v vs span-instrumented %v", mb, mc)
	}
}
