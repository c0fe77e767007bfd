package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"denova"
	"denova/internal/harness"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/server/client"
	"denova/internal/workload"
)

// env is one set-up instance: the generated trace, a freshly formatted
// device and the mounted file system (with the serve corpus preloaded).
type env struct {
	spec  *workloadSpec
	prof  workload.Profile
	cfg   denova.Config
	gen   *payloadGen
	parts [][]op
	dev   *denova.Device
	fs    *denova.FS

	genDur, allocDur, mkfsDur, preloadDur time.Duration
	// heapBase is the Go heap in use before the device was allocated.
	heapBase uint64
}

func (e *env) setupDur() time.Duration { return e.genDur + e.allocDur + e.mkfsDur + e.preloadDur }

func newEnv(spec *workloadSpec, seed int64, seconds float64, tracing denova.TraceLevel) (*env, error) {
	e := &env{spec: spec, cfg: fsConfig(tracing)}
	e.prof = spec.profile
	e.prof.Seed = seed
	e.prof = e.prof.Normalized()
	t := time.Now()
	e.parts = genTrace(e.prof, spec.traceLen(seconds))
	e.gen = newPayloadGen(e.prof)
	e.genDur = time.Since(t)

	e.heapBase = heapInUse()
	t = time.Now()
	e.dev = denova.NewDevice(spec.devSize, deviceProfile)
	prefault(e.dev)
	e.allocDur = time.Since(t)
	t = time.Now()
	fs, err := denova.Mkfs(e.dev, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	e.fs = fs
	for tn := 0; tn < e.prof.Tenants; tn++ {
		if dir := e.prof.TenantDir(tn); dir != "" {
			if err := fs.Mkdir(dir); err != nil {
				return nil, fmt.Errorf("mkdir %s: %w", dir, err)
			}
		}
	}
	e.mkfsDur = time.Since(t)
	if spec.corpusFiles > 0 {
		t = time.Now()
		if err := e.preload(); err != nil {
			return nil, err
		}
		e.preloadDur = time.Since(t)
	}
	return e, nil
}

// prefault touches every page of a fresh device image so the kernel's
// first-touch page faults land in set-up rather than in the timed phase
// (whether they happen otherwise depends on what the Go heap reused).
func prefault(dev *denova.Device) {
	dev.SetProfile(pmem.ProfileZero)
	defer dev.SetProfile(deviceProfile)
	zero := make([]byte, 1<<20)
	for off := int64(0); off < dev.Size(); off += int64(len(zero)) {
		dev.WriteNT(off, zero[:min(int64(len(zero)), dev.Size()-off)])
	}
}

// preload writes the cold corpus and drains its dedup work. It runs on the
// zero-latency device model: the corpus is set-up, not measurement.
func (e *env) preload() error {
	e.dev.SetProfile(pmem.ProfileZero)
	defer e.dev.SetProfile(deviceProfile)
	if err := e.fs.Mkdir("corpus"); err != nil {
		return fmt.Errorf("mkdir corpus: %w", err)
	}
	buf := make([]byte, e.spec.corpusPages*workload.ChunkSize)
	for i := 0; i < e.spec.corpusFiles; i++ {
		e.gen.fill(buf, corpusTenant, i, 1)
		f, err := e.fs.Create(corpusPath(i))
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("preload %s: %w", corpusPath(i), err)
		}
	}
	e.fs.Sync()
	return nil
}

// setupMedian runs set-up reps times and keeps the last instance;
// setup_s is the median set-up time.
func setupMedian(spec *workloadSpec, o options) (*env, []float64, error) {
	var times []float64
	var e *env
	for i := 0; i < max(1, o.setupReps); i++ {
		if e != nil {
			e.fs.UnmountDirty()
			e = nil // let the GC in newEnv free the previous device first
		}
		var err error
		e, err = newEnv(spec, o.seed, o.seconds, denova.TraceOff)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, e.setupDur().Seconds())
	}
	return e, times, nil
}

// counters is a snapshot of everything the layers publish.
type counters struct {
	st         denova.Stats
	met        obs.Snapshot
	dev        pmem.Stats
	totalAlloc uint64
	pauseNs    uint64
}

func takeCounters(fs *denova.FS) counters {
	c := counters{met: fs.Metrics(), st: fs.Stats(), dev: fs.Device().Stats()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.pauseNs = ms.TotalAlloc, ms.PauseTotalNs
	return c
}

func busyNs(s denova.Stats) int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.BusyNs
	}
	return n
}

// phase is one timed replay and its measurements.
type phase struct {
	workers     []*worker
	wall, sync  time.Duration
	scrapeNs    []int64
	scrapePages []int64
	before      counters
	after       counters
	exhausted   bool
}

func (p *phase) completed() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.completed()
	}
	return n
}

func (p *phase) bytesWritten() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.bytesW
	}
	return n
}

// scrapeEvery is the cadence of the in-run FS.Metrics calls, which stand
// in for a /metrics scraper. Timing scrapes throughout the run, rather
// than once at the end, averages over the live set's size as files grow
// and rotate.
const scrapeEvery = 200 * time.Millisecond

// runPhase replays the trace for the given time, then drains with FS.Sync.
func runPhase(e *env, o options, seconds float64, traced bool) (*phase, error) {
	spec := e.spec
	p := &phase{workers: make([]*worker, loadThreads)}
	if spec.wire {
		srv := server.New(e.fs, server.Config{})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		defer srv.Close()
		copts := client.Options{}
		if traced {
			copts.Tracer, copts.TraceContext = e.fs.Tracer(), true
		}
		for i := range p.workers {
			cl, err := client.Dial(addr, copts)
			if err != nil {
				return nil, fmt.Errorf("dial: %w", err)
			}
			defer cl.Close()
			p.workers[i] = newWorker(e.prof, &wireTarget{cl: cl, handles: map[int]denova.Handle{}}, e.gen)
		}
	} else {
		var tr *obs.Tracer
		if traced {
			tr = e.fs.Tracer()
		}
		for i := range p.workers {
			p.workers[i] = newWorker(e.prof, &localTarget{fs: e.fs, files: map[int]*denova.File{}, tracer: tr}, e.gen)
		}
	}
	for _, w := range p.workers {
		w.mutateRead = o.mutateRead
	}

	p.before = takeCounters(e.fs)
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.scrape(e.fs)
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, w := range p.workers {
		wg.Add(1)
		go func(w *worker, ops []op) {
			defer wg.Done()
			w.closedLoop(ops, start, deadline)
		}(w, e.parts[i])
	}
	wg.Wait()
	p.wall = time.Since(start)
	close(stop)
	scraper.Wait()
	p.exhausted = time.Now().Before(deadline)

	t := time.Now()
	e.fs.Sync()
	p.sync = time.Since(t)
	p.after = takeCounters(e.fs)
	return p, nil
}

// scrape times one FS.Metrics call, which is what /metrics serves. The
// time is the call's CPU time: on the shared reference VM its wall time
// also carried the run's contention and CPU steal, which moved its median
// by a fifth between runs of the same code.
func (p *phase) scrape(fs *denova.FS) {
	var pages int64
	d := cpuTime(func() { pages = fs.Metrics().Gauges["space.logical_pages"] })
	p.scrapeNs = append(p.scrapeNs, d.Nanoseconds())
	p.scrapePages = append(p.scrapePages, pages)
}

// dramMB is the FS's own DRAM footprint in MB: the Go heap in use after a
// forced GC, minus the heap before the device existed, the device image
// and the benchmark's oracle. Latency samples must be released first.
func (p *phase) dramMB(e *env) float64 {
	var oracle int64
	for _, w := range p.workers {
		oracle += w.oracleBytes()
	}
	heap := int64(heapInUse()) - int64(e.heapBase) - e.dev.Size() - oracle
	return float64(heap) / (1 << 20)
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// verify reads every file back in full against the oracle (and the serve
// corpus against its generator), checks that each namespace holds exactly
// the oracle's files, and runs Fsck, which includes the FACT invariants.
func (e *env) verify(fs *denova.FS, workers []*worker) error {
	want := map[string]map[string]bool{} // dir -> leaf names
	for tn := 0; tn < e.prof.Tenants; tn++ {
		want[e.prof.TenantDir(tn)] = map[string]bool{}
	}
	oracle := map[string][]byte{}
	for _, w := range workers {
		for key, data := range w.oracle {
			tn, fi := key/e.prof.FilesPerTenant, key%e.prof.FilesPerTenant
			path := e.prof.Path(tn, fi)
			want[e.prof.TenantDir(tn)][path[strings.LastIndex(path, "/")+1:]] = true
			oracle[path] = data
		}
	}
	if err := harness.VerifyOracle(fs, oracle); err != nil {
		return err
	}
	for dir, names := range want {
		got, err := fs.List(dir)
		if err != nil {
			return fmt.Errorf("list %q: %w", dir, err)
		}
		n := 0
		for _, name := range got {
			if strings.HasPrefix(name, "pf-") {
				n++
				if !names[name] {
					return fmt.Errorf("list %q: %s exists but the oracle deleted it", dir, name)
				}
			}
		}
		if n != len(names) {
			return fmt.Errorf("list %q: %d files, oracle has %d", dir, n, len(names))
		}
	}
	buf := make([]byte, e.spec.corpusPages*workload.ChunkSize)
	for i := 0; i < e.spec.corpusFiles; i++ {
		e.gen.fill(buf, corpusTenant, i, 1)
		if err := harness.VerifyOracle(fs, map[string][]byte{corpusPath(i): buf}); err != nil {
			return err
		}
	}
	if err := fs.Fsck(); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	return nil
}

// recovery is the power-cut remount measurement.
type recovery struct {
	wall   []float64 // seconds, one per mount
	passes []denova.RecoveryPass
}

// crashRecover takes the image a power cut would leave (every unflushed
// line dropped), then mounts a fresh copy of it o.recoveryReps times. The
// first recovered file system must hold every acknowledged write.
func (e *env) crashRecover(o options, workers []*worker) (recovery, error) {
	img := e.dev.CrashImage(pmem.CrashDropDirty, o.seed)
	e.fs.UnmountDirty()
	e.fs, e.dev = nil, nil
	for _, w := range workers {
		w.tgt = nil // in process, a target holds the crashed FS
	}
	runtime.GC()
	var r recovery
	var all [][]denova.RecoveryPass
	reps := max(1, o.recoveryReps)
	for i := 0; i < reps; i++ {
		dev := img
		if i < reps-1 {
			dev = img.Clone()
		}
		t := time.Now()
		fs, info, err := denova.Mount(dev, e.cfg)
		d := time.Since(t)
		if err != nil {
			return r, fmt.Errorf("mount after power cut: %w", err)
		}
		r.wall = append(r.wall, d.Seconds())
		all = append(all, info.Passes)
		if i == 0 {
			if err := e.verify(fs, workers); err != nil {
				fs.UnmountDirty()
				return r, fmt.Errorf("after power cut: %w", err)
			}
		}
		fs.UnmountDirty()
		runtime.GC()
	}
	// Report the passes of the median mount.
	idx := make([]int, len(r.wall))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.wall[idx[a]] < r.wall[idx[b]] })
	r.passes = all[idx[len(idx)/2]]
	return r, nil
}
