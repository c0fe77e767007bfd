package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// Machine-readable benchmark output: each run is written as
// BENCH_<name>.json so CI can archive results as artifacts and plot trends
// across commits. The report combines the harness's wall-clock throughput
// with the observability layer's latency percentiles and counters — the
// same numbers `denovactl top` and FS.Metrics() expose.

// LatencySummary is one op's percentile digest inside a BenchReport. When
// the run had tracing on, the p99 also carries its nearest latency exemplar
// — the trace id of the slowest recent sample in that latency region — so a
// regression in a report can be chased straight to a captured span tree.
type LatencySummary struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`

	P99TraceID    string `json:"p99_trace,omitempty"`       // exemplar trace id near the p99
	P99ExemplarNs int64  `json:"p99_exemplar_ns,omitempty"` // that exemplar's observed latency
}

// latencySummary digests one histogram, attaching the p99 exemplar when the
// run recorded one (tracing on).
func latencySummary(h obs.HistogramStats) LatencySummary {
	s := LatencySummary{Count: h.Count, P50Ns: h.P50Ns, P95Ns: h.P95Ns, P99Ns: h.P99Ns, MaxNs: h.MaxNs}
	if ex, ok := h.ExemplarNear(h.P99Ns); ok {
		s.P99TraceID = ex.TraceID
		s.P99ExemplarNs = ex.ValueNs
	}
	return s
}

// PmemCounters is the device-activity slice of a BenchReport.
type PmemCounters struct {
	FlushedLines int64 `json:"flushed_lines"`
	NTLines      int64 `json:"nt_lines"`
	Fences       int64 `json:"fences"`
	ReadBytes    int64 `json:"read_bytes"`
	WrittenBytes int64 `json:"written_bytes"`
}

// BenchReport is the schema of a BENCH_<name>.json file. Plain write
// benchmarks leave Profile empty; profile-trace runs set it (along with
// TotalOps/OpCounts) and the SLO gate keys on it. The field names are
// pinned by the golden-file test — the gate trusts them.
type BenchReport struct {
	Name        string  `json:"name"`
	Model       string  `json:"model"`
	Workload    string  `json:"workload"`
	Profile     string  `json:"profile,omitempty"` // op-trace profile name
	GeneratedAt string  `json:"generated_at"`
	Threads     int     `json:"threads"`
	Files       int     `json:"files"`
	Bytes       int64   `json:"bytes"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	DrainNs     int64   `json:"drain_ns"`
	OpsPerSec   float64 `json:"ops_per_sec"` // write-phase file writes/s, or trace ops/s
	MBps        float64 `json:"mbps"`        // write-phase throughput
	Savings     float64 `json:"savings"`     // post-drain dedup savings [0,1]
	QueuePeak   int     `json:"queue_peak"`

	TotalOps int64            `json:"total_ops,omitempty"` // trace length (profile runs)
	OpCounts map[string]int64 `json:"op_counts,omitempty"` // per-kind op counts

	// FencesPerPage is the append benchmark's headline: fences issued per
	// appended page during the append phase (see append.go). Zero (and
	// omitted) for every other benchmark.
	FencesPerPage float64 `json:"fences_per_page,omitempty"`

	Pmem    PmemCounters              `json:"pmem"`
	Latency map[string]LatencySummary `json:"latency"` // op name → percentiles
}

// benchOps is the op set whose percentiles a BenchReport carries (only ops
// that actually observed samples are included).
var benchOps = []string{
	"nova.write", "nova.read", "nova.truncate",
	"nova.write.stage", "nova.write.relink",
	"dedup.process", "dedup.batch", "dedup.queue_wait",
	"fact.begin_txn", "fact.commit_batch", "fact.decref",
}

// newReport is the one BenchReport constructor. base carries the
// run-specific fields (Bytes among them); newReport stamps the generation
// time and fills the throughput (ops and bytes over elapsed), the device
// counters, and the FS-layer percentiles of benchOps from snap.
func newReport(base BenchReport, ops int64, elapsed time.Duration, dev pmem.Stats, snap obs.Snapshot) BenchReport {
	rep := base
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.ElapsedNs = elapsed.Nanoseconds()
	if elapsed > 0 {
		rep.OpsPerSec = float64(ops) / elapsed.Seconds()
		rep.MBps = float64(rep.Bytes) / (1 << 20) / elapsed.Seconds()
	}
	rep.Pmem = PmemCounters{
		FlushedLines: dev.FlushedLines,
		NTLines:      dev.NTLines,
		Fences:       dev.Fences,
		ReadBytes:    dev.ReadBytes,
		WrittenBytes: dev.WrittenBytes,
	}
	if rep.Latency == nil {
		rep.Latency = map[string]LatencySummary{}
	}
	for _, op := range benchOps {
		if h, ok := snap.Histograms[op]; ok && h.Count > 0 {
			rep.Latency[op] = latencySummary(h)
		}
	}
	return rep
}

// RunBenchJSON executes one write benchmark and writes BENCH_<name>.json
// into dir, returning the report and the file path. The name is derived
// from the model and workload ("DeNOVA-Immediate" + "fio-4k" →
// "denova-immediate_fio-4k") unless overridden via name.
func RunBenchJSON(cfg FSConfig, spec workload.Spec, opts WriteOptions, dir, name string) (BenchReport, string, error) {
	spec = spec.Normalized()
	if spec.Name == "" && name == "" {
		return BenchReport{}, "", fmt.Errorf("benchjson: spec has no Name and no override name given")
	}
	if spec.NumFiles == 0 {
		return BenchReport{}, "", fmt.Errorf("benchjson: empty workload %q (zero files, nothing to measure)", spec.Name)
	}
	opts.KeepFS = true
	res, fs, err := RunWrite(cfg, spec, opts)
	if err != nil {
		return BenchReport{}, "", err
	}
	snap := fs.Metrics()
	queuePeak := fs.StatsSnapshot().Queue.Peak
	if err := fs.Unmount(); err != nil {
		return BenchReport{}, "", err
	}
	if name == "" {
		name = benchSlug(res.Model) + "_" + benchSlug(res.Workload)
	}
	rep := newReport(BenchReport{
		Name:      name,
		Model:     res.Model,
		Workload:  res.Workload,
		Threads:   res.Threads,
		Files:     res.Files,
		Bytes:     res.Bytes,
		DrainNs:   res.DrainTime.Nanoseconds(),
		Savings:   res.Savings,
		QueuePeak: queuePeak,
	}, int64(res.Files), res.Elapsed, res.Dev, snap)
	path, err := writeReport(rep, dir)
	if err != nil {
		return rep, "", err
	}
	return rep, path, nil
}

// writeReport serializes one report as BENCH_<name>.json in dir.
func writeReport(rep BenchReport, dir string) (string, error) {
	path := filepath.Join(dir, "BENCH_"+rep.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// benchSlug lowercases a label, maps non-filename characters to '-' and
// trims dangling dashes.
func benchSlug(s string) string {
	s = strings.ToLower(s)
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
	return strings.Trim(s, "-")
}

// StandardBenchSpecs returns the workloads `make bench-json` runs: a
// duplicate-heavy and a duplicate-poor stream, small enough for CI.
func StandardBenchSpecs() []workload.Spec {
	return []workload.Spec{
		{Name: "dup50-4m", FileSize: 1 << 20, NumFiles: 4, DupRatio: 0.5, Seed: 42},
		{Name: "dup05-4m", FileSize: 1 << 20, NumFiles: 4, DupRatio: 0.05, Seed: 43},
	}
}

// RunProfileBenchJSON replays one profile and writes BENCH_<name>.json into
// dir ("<model>_<profile>" unless overridden).
func RunProfileBenchJSON(cfg FSConfig, prof workload.Profile, opts ProfileOptions, dir, name string) (BenchReport, string, error) {
	opts.KeepFS = true
	res, fs, err := RunProfile(cfg, prof, opts)
	if err != nil {
		return BenchReport{}, "", err
	}
	snap := fs.Metrics()
	if err := fs.Unmount(); err != nil {
		return BenchReport{}, "", err
	}
	if name == "" {
		name = benchSlug(res.Model) + "_" + benchSlug(res.Profile)
	}
	// Trace-level per-op-type percentiles from the runner's own histograms
	// sit next to the FS-layer percentiles newReport adds.
	lat := map[string]LatencySummary{}
	for op, h := range res.Latency {
		lat[op] = latencySummary(h)
	}
	rep := newReport(BenchReport{
		Name:      name,
		Model:     res.Model,
		Workload:  res.Profile,
		Profile:   res.Profile,
		Threads:   res.Threads,
		Files:     len(res.Oracle),
		Bytes:     res.Bytes,
		DrainNs:   res.Drain.Nanoseconds(),
		Savings:   res.Savings,
		QueuePeak: res.QueuePeak,
		TotalOps:  res.Ops,
		OpCounts:  res.OpCounts,
		Latency:   lat,
	}, res.Ops, res.Elapsed, res.Dev, snap)
	path, err := writeReport(rep, dir)
	if err != nil {
		return rep, "", err
	}
	return rep, path, nil
}

// StandardProfileOps is the trace length of the CI/SLO profile suite: long
// enough for stable p99s, short enough for a CI job.
const StandardProfileOps = 1200

// StandardProfileModel is the evaluation model the SLO suite pins: the
// paper's recommended deployment shape.
func StandardProfileModel() FSConfig { return FSConfig{Mode: denova.ModeImmediate} }

// WriteProfileBenchJSON replays every standard profile under the standard
// model and writes one BENCH_<model>_<profile>.json each into dir.
func WriteProfileBenchJSON(dir string) ([]BenchReport, []string, error) {
	var reports []BenchReport
	var paths []string
	cfg := StandardProfileModel()
	for _, prof := range workload.StandardProfiles(StandardProfileOps) {
		rep, path, err := RunProfileBenchJSON(cfg, prof, ProfileOptions{}, dir, "")
		if err != nil {
			return reports, paths, fmt.Errorf("%s/%s: %w", cfg.Label(), prof.Name, err)
		}
		reports = append(reports, rep)
		paths = append(paths, path)
	}
	return reports, paths, nil
}

// WriteStandardBenchJSON runs the standard specs against the standard model
// line-up and writes one BENCH_*.json per (model, workload) pair into dir.
func WriteStandardBenchJSON(dir string) ([]string, error) {
	var paths []string
	for _, cfg := range StandardModels() {
		for _, spec := range StandardBenchSpecs() {
			_, path, err := RunBenchJSON(cfg, spec, WriteOptions{}, dir, "")
			if err != nil {
				return paths, fmt.Errorf("%s/%s: %w", cfg.Label(), spec.Name, err)
			}
			paths = append(paths, path)
		}
	}
	return paths, nil
}
