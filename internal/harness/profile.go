package harness

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// Profile runner: replays a workload.Profile op trace against a live file
// system through the existing worker-pool machinery, with a content oracle
// checking every read and the quiesced end state, and per-op-type latency
// histograms recorded through internal/obs. This is the engine behind the
// per-profile BENCH_*.json artifacts and the SLO gate.

// ProfileOptions tunes a profile run.
type ProfileOptions struct {
	// Threads is the replay worker count; ops are partitioned by file so
	// per-file trace order is preserved (fio numjobs style). Default 2.
	Threads int
	// DevSize overrides the simulated device size (default: sized from the
	// materialized trace's write volume plus headroom).
	DevSize int64
	// Profile selects the device latency model (default Optane).
	Profile pmem.LatencyProfile
	// GCEvery forces a thorough log-GC pass on the file just touched every
	// N ops per worker (0 = never) — chaos for the multi-tenant smoke.
	GCEvery int
	// KeepFS returns the mounted FS instead of unmounting it.
	KeepFS bool
}

func (o *ProfileOptions) fill(writeBytes int64, prof workload.Profile) {
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.DevSize == 0 {
		// Every write allocates fresh pages until GC; triple the write
		// volume plus the live cap plus fixed headroom is comfortably
		// beyond worst case.
		o.DevSize = 3*writeBytes + prof.MaxBytes() + (64 << 20)
	}
	if o.Profile.Name == "" {
		o.Profile = pmem.ProfileOptane
	}
}

// ProfileResult is one profile run's measurement.
type ProfileResult struct {
	Model     string
	Profile   string
	Threads   int
	Ops       int64            // ops executed
	OpCounts  map[string]int64 // per-kind op counts
	Elapsed   time.Duration    // replay phase
	Drain     time.Duration    // additional background-dedup drain
	Bytes     int64            // bytes written (write+append payloads)
	Read      int64            // bytes read back
	Savings   float64          // post-drain dedup savings
	QueuePeak int
	Dev       pmem.Stats
	// Latency holds one histogram summary per op type ("op.create",
	// "op.read", ...), recorded via internal/obs around each replayed op.
	Latency map[string]obs.HistogramStats
	// Oracle is the expected post-run content of every live file
	// (path → bytes), retained so callers can re-verify after remount.
	Oracle map[string][]byte
}

// OpsPerSec is the replay-phase operation throughput.
func (r ProfileResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// profileWorker is one replay thread's state: open handles and the content
// oracle for the file slots it owns. Slots are partitioned by
// fileKey % threads, so no state is shared across workers.
type profileWorker struct {
	fs      *denova.FS
	prof    workload.Profile
	handles map[int]*denova.File
	oracle  map[int][]byte
	hists   *[7]*obs.Histogram
	bytesW  int64
	bytesR  int64
	gcEvery int
	opCount int
}

func (w *profileWorker) run(op workload.Op, payload []byte) error {
	key := op.Tenant*w.prof.FilesPerTenant + op.File
	path := w.prof.Path(op.Tenant, op.File)
	start := time.Now()
	switch op.Kind {
	case workload.OpCreate:
		f, err := w.fs.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		w.handles[key] = f
		w.oracle[key] = nil
	case workload.OpWrite, workload.OpAppend:
		f := w.handles[key]
		if f == nil {
			return fmt.Errorf("%v %s: no open handle (trace order broken?)", op.Kind, path)
		}
		if _, err := f.WriteAt(payload, op.Off); err != nil {
			return fmt.Errorf("%v %s@%d: %w", op.Kind, path, op.Off, err)
		}
		w.bytesW += int64(len(payload))
		cur := w.oracle[key]
		if need := op.Off + int64(len(payload)); int64(len(cur)) < need {
			grown := make([]byte, need)
			copy(grown, cur)
			cur = grown
		}
		copy(cur[op.Off:], payload)
		w.oracle[key] = cur
	case workload.OpRead:
		f := w.handles[key]
		if f == nil {
			return fmt.Errorf("read %s: no open handle", path)
		}
		buf := make([]byte, op.Size)
		n, err := f.ReadAt(buf, op.Off)
		if err != nil {
			return fmt.Errorf("read %s@%d: %w", path, op.Off, err)
		}
		w.bytesR += int64(n)
		want := w.oracle[key]
		if int64(n) != op.Size || op.Off+op.Size > int64(len(want)) {
			return fmt.Errorf("read %s@%d: got %d bytes, oracle size %d, want %d",
				path, op.Off, n, len(want), op.Size)
		}
		if !bytes.Equal(buf[:n], want[op.Off:op.Off+int64(n)]) {
			return fmt.Errorf("read %s@%d: content diverges from oracle", path, op.Off)
		}
	case workload.OpStat:
		f := w.handles[key]
		if f == nil {
			return fmt.Errorf("stat %s: no open handle", path)
		}
		if got, want := f.Stat().Size, int64(len(w.oracle[key])); got != want {
			return fmt.Errorf("stat %s: size %d, oracle %d", path, got, want)
		}
	case workload.OpDelete:
		if err := w.fs.Remove(path); err != nil {
			return fmt.Errorf("delete %s: %w", path, err)
		}
		delete(w.handles, key)
		delete(w.oracle, key)
	case workload.OpTruncate:
		f := w.handles[key]
		if f == nil {
			return fmt.Errorf("truncate %s: no open handle", path)
		}
		if err := f.Truncate(op.Size); err != nil {
			return fmt.Errorf("truncate %s to %d: %w", path, op.Size, err)
		}
		cur := w.oracle[key]
		if op.Size <= int64(len(cur)) {
			w.oracle[key] = cur[:op.Size]
		} else {
			grown := make([]byte, op.Size)
			copy(grown, cur)
			w.oracle[key] = grown
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	w.hists[op.Kind].Observe(time.Since(start))

	w.opCount++
	if w.gcEvery > 0 && w.opCount%w.gcEvery == 0 && op.Kind != workload.OpDelete {
		if _, err := w.fs.ForceGC(path); err != nil {
			return fmt.Errorf("force-gc %s: %w", path, err)
		}
	}
	return nil
}

// RunProfile formats a fresh device and replays the profile's op trace with
// opts.Threads workers. Reads are verified against the content oracle as
// they happen; after the replay the dedup queue is drained and every
// surviving file is read back in full against the oracle. The returned FS
// is non-nil only with KeepFS.
func RunProfile(cfg FSConfig, prof workload.Profile, opts ProfileOptions) (ProfileResult, *denova.FS, error) {
	prof = prof.Normalized()
	if prof.NumOps == 0 {
		return ProfileResult{}, nil, fmt.Errorf("profile %q: empty trace (NumOps == 0)", prof.Name)
	}
	ops := prof.Ops()

	// Pre-generate payloads so data synthesis stays out of the op timings.
	gen := prof.NewPayloadGen()
	payloads := make([][]byte, len(ops))
	var writeBytes int64
	for i, op := range ops {
		if op.Kind == workload.OpWrite || op.Kind == workload.OpAppend {
			payloads[i] = gen.Data(op)
			writeBytes += op.Size
		}
	}
	opts.fill(writeBytes, prof)

	dev := denova.NewDevice(opts.DevSize, opts.Profile)
	fs, err := denova.Mkfs(dev, cfg.denovaConfig())
	if err != nil {
		return ProfileResult{}, nil, err
	}
	for tn := 0; tn < prof.Tenants; tn++ {
		if dir := prof.TenantDir(tn); dir != "" {
			if err := fs.Mkdir(dir); err != nil {
				return ProfileResult{}, nil, err
			}
		}
	}

	// Per-op-type latency histograms, resolved once (obs idiom: hot paths
	// never touch the registry map).
	reg := obs.NewRegistry()
	var hists [7]*obs.Histogram
	for k := workload.OpCreate; k <= workload.OpTruncate; k++ {
		hists[k] = reg.Histogram("op." + k.String())
	}

	workers := make([]*profileWorker, opts.Threads)
	for i := range workers {
		workers[i] = &profileWorker{
			fs: fs, prof: prof, hists: &hists,
			handles: map[int]*denova.File{},
			oracle:  map[int][]byte{},
			gcEvery: opts.GCEvery,
		}
	}

	devBefore := dev.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, opts.Threads)
	for tid := 0; tid < opts.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := workers[tid]
			for i, op := range ops {
				key := op.Tenant*prof.FilesPerTenant + op.File
				if key%opts.Threads != tid {
					continue
				}
				if err := w.run(op, payloads[i]); err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", tid, i, err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		fs.Unmount()
		return ProfileResult{}, nil, err
	default:
	}

	drainStart := time.Now()
	fs.Sync()
	drain := time.Since(drainStart)

	res := ProfileResult{
		Model:     cfg.Label(),
		Profile:   prof.Name,
		Threads:   opts.Threads,
		Ops:       int64(len(ops)),
		Elapsed:   elapsed,
		Drain:     drain,
		Savings:   fs.Stats().Space.Savings(),
		QueuePeak: fs.StatsSnapshot().Queue.Peak,
		Dev:       dev.Stats().Sub(devBefore),
		OpCounts:  map[string]int64{},
		Latency:   map[string]obs.HistogramStats{},
		Oracle:    map[string][]byte{},
	}
	for _, op := range ops {
		res.OpCounts[op.Kind.String()]++
	}
	for k := workload.OpCreate; k <= workload.OpTruncate; k++ {
		if st := hists[k].Stats(); st.Count > 0 {
			res.Latency["op."+k.String()] = st
		}
	}
	for _, w := range workers {
		res.Bytes += w.bytesW
		res.Read += w.bytesR
		for key, data := range w.oracle {
			res.Oracle[prof.Path(key/prof.FilesPerTenant, key%prof.FilesPerTenant)] = data
		}
	}

	// Quiesced end-state verification: every surviving file reads back as
	// the oracle says, through the fully drained dedup pipeline.
	if err := VerifyOracle(fs, res.Oracle); err != nil {
		fs.Unmount()
		return ProfileResult{}, nil, err
	}

	if opts.KeepFS {
		return res, fs, nil
	}
	if err := fs.Unmount(); err != nil {
		return ProfileResult{}, nil, err
	}
	return res, nil, nil
}

// VerifyOracle reads every oracle file in full and compares it against the
// expected bytes (used post-run and again after remount).
func VerifyOracle(fs *denova.FS, oracle map[string][]byte) error {
	for path, want := range oracle {
		f, err := fs.Open(path)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", path, err)
		}
		if got := f.Stat().Size; got != int64(len(want)) {
			return fmt.Errorf("oracle %s: size %d, want %d", path, got, len(want))
		}
		if len(want) == 0 {
			continue
		}
		buf := make([]byte, len(want))
		n, err := f.ReadAt(buf, 0)
		if err != nil {
			return fmt.Errorf("oracle %s: read: %w", path, err)
		}
		if n != len(want) || !bytes.Equal(buf[:n], want) {
			return fmt.Errorf("oracle %s: content diverges (%d/%d bytes)", path, n, len(want))
		}
	}
	return nil
}
