package harness

import (
	"fmt"
	"time"

	"denova"
	"denova/internal/pmem"
)

// Append microbenchmark for the split write path (§ staged appends +
// batched relink). Two runs over the identical append stream:
//
//	baseline — every append takes the slow five-step CoW path: one log
//	           entry, one persist, one tail commit (≈2 fences per page);
//	staged   — appends land in the DRAM staging buffer and relink as one
//	           batch per AppendBatch pages: ~one fence per batch.
//
// The headline number is fences per appended page, computed from the
// device's own fence counter over the append phase, and published in the
// BENCH_*_append.json reports (FencesPerPage). The staged report carries
// Profile "append" so the SLO gate bounds its throughput and relink p99
// like any other profile; RunSLOGate additionally enforces the fence
// reduction ratio between the two reports.

// AppendBatch is the staged run's relink batch size (Staging.MaxPages).
const AppendBatch = 8

// appendBenchFiles/appendBenchPages size the standard run: 8 files x 64
// single-page appends each, small enough for CI, large enough that the
// per-batch fence cost dominates fixed setup costs.
const (
	appendBenchFiles = 8
	appendBenchPages = 64
)

// appendBenchName is the bench's file naming scheme.
func appendBenchName(i int) string { return fmt.Sprintf("append-%03d", i) }

// AppendResult is one append-stream measurement.
type AppendResult struct {
	Staged        bool
	Files         int
	PagesPerFile  int
	Elapsed       time.Duration
	Fences        int64   // fences during the append phase
	FencesPerPage float64 // Fences / (Files*PagesPerFile)
	OpsPerSec     float64 // appends per second
}

// RunAppend drives the append stream on a fresh FS and measures the
// append-phase fence cost. KeepFS semantics match the other runners: the
// FS is returned mounted for metrics capture.
func RunAppend(staged bool, files, pages int, prof pmem.LatencyProfile) (AppendResult, *denova.FS, error) {
	cfg := denova.Config{Mode: denova.ModeNone}
	if staged {
		cfg.Staging = denova.StagingConfig{MaxPages: AppendBatch}
	}
	devSize := int64(files*pages)*4096*4 + (64 << 20)
	dev := denova.NewDevice(devSize, prof)
	fs, err := denova.Mkfs(dev, cfg)
	if err != nil {
		return AppendResult{}, nil, err
	}
	fhs := make([]*denova.File, files)
	for i := range fhs {
		if fhs[i], err = fs.Create(appendBenchName(i)); err != nil {
			return AppendResult{}, nil, err
		}
	}
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i*7 + 3)
	}
	f0 := dev.Stats().Fences
	start := time.Now()
	for p := 0; p < pages; p++ {
		for _, f := range fhs {
			if _, err := f.WriteAt(page, int64(p)*4096); err != nil {
				return AppendResult{}, nil, err
			}
		}
	}
	for _, f := range fhs {
		if err := f.Sync(); err != nil {
			return AppendResult{}, nil, err
		}
	}
	elapsed := time.Since(start)
	fences := dev.Stats().Fences - f0

	total := files * pages
	res := AppendResult{
		Staged:        staged,
		Files:         files,
		PagesPerFile:  pages,
		Elapsed:       elapsed,
		Fences:        fences,
		FencesPerPage: float64(fences) / float64(total),
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(total) / elapsed.Seconds()
	}
	return res, fs, nil
}

// WriteAppendBenchJSON runs the baseline and staged append streams and
// writes BENCH_baseline-nova_append.json and BENCH_denova-staged_append.json
// into dir.
func WriteAppendBenchJSON(dir string) ([]BenchReport, []string, error) {
	var reports []BenchReport
	var paths []string
	for _, staged := range []bool{false, true} {
		res, fs, err := RunAppend(staged, appendBenchFiles, appendBenchPages, pmem.ProfileZero)
		if err != nil {
			return reports, paths, err
		}
		// Only the staged run carries Profile "append": the SLO gate keys
		// on Profile, and the baseline run exists for the ratio, not as an
		// objective of its own.
		base := BenchReport{
			Name: "baseline-nova_append", Model: "Baseline NOVA", Workload: "append",
			Threads: 1, Files: res.Files, Bytes: int64(res.Files*res.PagesPerFile) * 4096,
			FencesPerPage: res.FencesPerPage,
		}
		if staged {
			base.Name, base.Model, base.Profile = "denova-staged_append", "DeNOVA-Staged", "append"
		}
		snap := fs.Metrics()
		rep := newReport(base, int64(res.Files*res.PagesPerFile), res.Elapsed, fs.Stats().Device, snap)
		if err := fs.Unmount(); err != nil {
			return reports, paths, err
		}
		path, err := writeReport(rep, dir)
		if err != nil {
			return reports, paths, err
		}
		reports = append(reports, rep)
		paths = append(paths, path)
	}
	return reports, paths, nil
}

// AppendFenceReduction returns baseline/staged fences-per-page from a pair
// of append reports (0 when either report is missing or degenerate).
func AppendFenceReduction(reports []BenchReport) float64 {
	var base, staged float64
	for _, rep := range reports {
		switch rep.Name {
		case "baseline-nova_append":
			base = rep.FencesPerPage
		case "denova-staged_append":
			staged = rep.FencesPerPage
		}
	}
	if base <= 0 || staged <= 0 {
		return 0
	}
	return base / staged
}
