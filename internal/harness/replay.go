package harness

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/pmem"
	"denova/internal/server"
	"denova/internal/server/client"
	"denova/internal/server/wire"
	"denova/internal/workload"
)

// Profile replay: one engine replays a workload.Profile op trace against a
// target — the in-process API (RunProfile) or denova-serve's wire protocol
// over loopback TCP (RunProfileOverServer, ReplayTraceOverClient). Ops are
// partitioned by file across replay goroutines so per-file trace order
// holds (fio numjobs style); a content oracle checks every read as it
// happens and the quiesced end state afterwards. Each op is timed where
// the caller issues it into an op.<kind> histogram, so a wire run's client
// latency sits next to the server's serve.op.<name> exec time. This is the
// engine behind the per-profile BENCH_*.json artifacts, the SLO gate and
// the serving layer's end-to-end gate.

// ProfileOptions tunes an in-process profile run.
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

// ServeProfileOptions tunes a networked profile run.
type ServeProfileOptions struct {
	// Threads is the replay client-goroutine count; each dials its own
	// connection. Default 2.
	Threads int
	// DevSize overrides the device size (default: sized from the trace).
	DevSize int64
	// Profile selects the device latency model (default Optane).
	Profile pmem.LatencyProfile
	// Server tunes the serving layer (zero value = server defaults). Tiny
	// MaxInflight/QueueDepth values make the run exercise shed-and-retry.
	Server server.Config
	// Tracing sets the FS tracer level for the run (default TraceOff).
	Tracing denova.TraceLevel
	// SlowSpanThreshold enables tail-sampled slow-span capture on the
	// served FS (needs Tracing >= TraceOps; see denova.Config).
	SlowSpanThreshold time.Duration
	// TraceWire hands every replay client the served FS's tracer and turns
	// on wire trace-context propagation, so client.call spans and the
	// server-side request spans join into single traces.
	TraceWire bool
}

// ReplayResult is what every profile replay measures, in process or over
// the wire.
type ReplayResult struct {
	Model    string
	Profile  string
	Threads  int
	Ops      int64            // ops executed
	OpCounts map[string]int64 // per-kind op counts
	Elapsed  time.Duration    // replay phase
	Bytes    int64            // bytes written (write+append payloads)
	Read     int64            // bytes read back
	Savings  float64          // post-drain dedup savings
	// Latency holds one histogram summary per op type ("op.create",
	// "op.read", ...), timed around each op where the replay issues it:
	// the API call in process, the client round trip over the wire.
	Latency map[string]obs.HistogramStats
	// Oracle is the expected post-run content of every live file
	// (path → bytes), retained so callers can re-verify after remount.
	Oracle map[string][]byte
}

// OpsPerSec is the replay-phase operation throughput.
func (r ReplayResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// ProfileResult is one in-process profile run's measurement.
type ProfileResult struct {
	ReplayResult
	Drain     time.Duration // additional background-dedup drain
	QueuePeak int
	Dev       pmem.Stats
}

// ServeProfileResult is one networked run's measurement.
type ServeProfileResult struct {
	ReplayResult
	Shed int64 // admission-control sheds absorbed by client retries
	// OpLatency holds the server-side serve.op.<name> histograms.
	OpLatency map[string]obs.HistogramStats
	// Snapshot is the full end-of-run metrics snapshot (histograms with
	// exemplars, per-tenant counters, raw buckets).
	Snapshot obs.Snapshot
	// Slow holds the captured slow span trees (empty unless
	// SlowSpanThreshold was set).
	Slow []denova.SlowTrace
}

// target is what a replay drives. Handles are opaque to the replayer: a
// *denova.File in process, a denova.Handle over the wire.
type target interface {
	mkdir(path string) error
	create(path string) (any, error)
	write(h any, p []byte, off int64) (int, error)
	read(h any, off, n int64) ([]byte, error)
	stat(h any) (int64, error)
	remove(path string) error
	truncate(h any, size int64) error
	// readFile looks path up afresh and returns its full content.
	readFile(path string) ([]byte, error)
}

// fsTarget drives the in-process API.
type fsTarget struct{ fs *denova.FS }

func (t fsTarget) mkdir(path string) error         { return t.fs.Mkdir(path) }
func (t fsTarget) create(path string) (any, error) { return t.fs.Create(path) }
func (t fsTarget) remove(path string) error        { return t.fs.Remove(path) }

func (fsTarget) write(h any, p []byte, off int64) (int, error) {
	return h.(*denova.File).WriteAt(p, off)
}

func (fsTarget) read(h any, off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	got, err := h.(*denova.File).ReadAt(buf, off)
	return buf[:got], err
}

func (fsTarget) stat(h any) (int64, error)        { return h.(*denova.File).Stat().Size, nil }
func (fsTarget) truncate(h any, size int64) error { return h.(*denova.File).Truncate(size) }

func (t fsTarget) readFile(path string) ([]byte, error) {
	f, err := t.fs.Open(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, f.Stat().Size)
	if len(buf) == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	return buf[:n], err
}

// clientTarget drives one wire connection.
type clientTarget struct{ cl *client.Client }

func (t clientTarget) mkdir(path string) error         { return t.cl.Mkdir(path) }
func (t clientTarget) create(path string) (any, error) { return t.cl.Create(path) }
func (t clientTarget) remove(path string) error        { return t.cl.Remove(path) }

func (t clientTarget) write(h any, p []byte, off int64) (int, error) {
	return t.cl.Write(h.(denova.Handle), uint64(off), p)
}

func (t clientTarget) read(h any, off, n int64) ([]byte, error) {
	return t.cl.Read(h.(denova.Handle), uint64(off), uint32(n))
}

func (t clientTarget) stat(h any) (int64, error) {
	info, err := t.cl.Stat(h.(denova.Handle))
	return info.Size, err
}

func (t clientTarget) truncate(h any, size int64) error {
	return t.cl.Truncate(h.(denova.Handle), uint64(size))
}

func (t clientTarget) readFile(path string) ([]byte, error) {
	h, info, err := t.cl.Lookup(path)
	if err != nil {
		return nil, err
	}
	// Chunked so files beyond one frame read back too.
	const chunk = 1 << 20
	buf := make([]byte, 0, info.Size)
	for int64(len(buf)) < info.Size {
		n := min(chunk, info.Size-int64(len(buf)))
		data, err := t.cl.Read(h, uint64(len(buf)), uint32(n))
		if err != nil {
			return nil, fmt.Errorf("read @%d: %w", len(buf), err)
		}
		if len(data) == 0 {
			break
		}
		buf = append(buf, data...)
	}
	return buf, nil
}

// opHists holds one latency histogram per op kind.
type opHists [workload.OpTruncate + 1]obs.Histogram

// replayer is one replay goroutine's state: its target, and the open
// handles and content oracle for the file slots it owns. Slots are
// partitioned by file key % threads, so replayers share only the
// histograms, which are safe for concurrent use.
type replayer struct {
	t       target
	prof    workload.Profile
	hists   *opHists
	handles map[int]any
	oracle  map[int][]byte
	bytesW  int64
	bytesR  int64
	done    int // ops run so far
	// after, if set, runs untimed after every op with the replayer's op
	// count (RunProfile's GCEvery hook).
	after func(n int, op workload.Op, path string) error
}

func (r *replayer) run(op workload.Op, payload []byte) error {
	key := op.Tenant*r.prof.FilesPerTenant + op.File
	path := r.prof.Path(op.Tenant, op.File)
	h, open := r.handles[key]
	if !open && op.Kind != workload.OpCreate && op.Kind != workload.OpDelete {
		return fmt.Errorf("%v %s: no open handle (trace order broken?)", op.Kind, path)
	}

	var (
		n    int    // bytes written
		data []byte // bytes read
		size int64  // stat size
		err  error
	)
	start := time.Now()
	switch op.Kind {
	case workload.OpCreate:
		h, err = r.t.create(path)
	case workload.OpWrite, workload.OpAppend:
		n, err = r.t.write(h, payload, op.Off)
	case workload.OpRead:
		data, err = r.t.read(h, op.Off, op.Size)
	case workload.OpStat:
		size, err = r.t.stat(h)
	case workload.OpDelete:
		err = r.t.remove(path)
	case workload.OpTruncate:
		err = r.t.truncate(h, op.Size)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	lat := time.Since(start)
	if err != nil {
		return fmt.Errorf("%v %s@%d: %w", op.Kind, path, op.Off, err)
	}
	r.hists[op.Kind].Observe(lat)

	switch op.Kind {
	case workload.OpCreate:
		r.handles[key], r.oracle[key] = h, nil
	case workload.OpWrite, workload.OpAppend:
		if n != len(payload) {
			return fmt.Errorf("%v %s@%d: wrote %d of %d", op.Kind, path, op.Off, n, len(payload))
		}
		r.bytesW += int64(n)
		cur := r.oracle[key]
		if need := op.Off + int64(n); int64(len(cur)) < need {
			cur = resized(cur, need)
		}
		copy(cur[op.Off:], payload)
		r.oracle[key] = cur
	case workload.OpRead:
		r.bytesR += int64(len(data))
		want := r.oracle[key]
		if int64(len(data)) != op.Size || op.Off+op.Size > int64(len(want)) {
			return fmt.Errorf("read %s@%d: got %d bytes, oracle size %d, want %d",
				path, op.Off, len(data), len(want), op.Size)
		}
		if !bytes.Equal(data, want[op.Off:op.Off+op.Size]) {
			return fmt.Errorf("read %s@%d: content diverges from oracle", path, op.Off)
		}
	case workload.OpStat:
		if want := int64(len(r.oracle[key])); size != want {
			return fmt.Errorf("stat %s: size %d, oracle %d", path, size, want)
		}
	case workload.OpDelete:
		delete(r.handles, key)
		delete(r.oracle, key)
	case workload.OpTruncate:
		r.oracle[key] = resized(r.oracle[key], op.Size)
	}

	r.done++
	if r.after != nil {
		return r.after(r.done, op, path)
	}
	return nil
}

// resized returns b cut or zero-extended to n bytes.
func resized(b []byte, n int64) []byte {
	if n <= int64(len(b)) {
		return b[:n]
	}
	grown := make([]byte, n)
	copy(grown, b)
	return grown
}

// trace is a profile's materialized op stream, with write payloads
// pre-generated so data synthesis stays out of the op timings.
type trace struct {
	prof       workload.Profile
	ops        []workload.Op
	payloads   [][]byte
	writeBytes int64
}

func newTrace(prof workload.Profile) (*trace, error) {
	prof = prof.Normalized()
	if prof.NumOps == 0 {
		return nil, fmt.Errorf("profile %q: empty trace (NumOps == 0)", prof.Name)
	}
	t := &trace{prof: prof, ops: prof.Ops()}
	gen := prof.NewPayloadGen()
	t.payloads = make([][]byte, len(t.ops))
	for i, op := range t.ops {
		if op.Kind == workload.OpWrite || op.Kind == workload.OpAppend {
			t.payloads[i] = gen.Data(op)
			t.writeBytes += op.Size
		}
	}
	return t, nil
}

// device allocates the replay device, sized from the trace (size 0) and
// on the Optane latency model unless lat names another.
func (t *trace) device(size int64, lat pmem.LatencyProfile) *denova.Device {
	if size == 0 {
		// Every write allocates fresh pages until GC; triple the write
		// volume plus the live cap plus fixed headroom is comfortably
		// beyond worst case.
		size = 3*t.writeBytes + t.prof.MaxBytes() + (64 << 20)
	}
	if lat.Name == "" {
		lat = pmem.ProfileOptane
	}
	return denova.NewDevice(size, lat)
}

// threadsOr2 applies the replay-thread default.
func threadsOr2(n int) int {
	if n <= 0 {
		return 2
	}
	return n
}

// replay creates the tenant directories through targets[0], then replays
// the trace with one goroutine per target, op i going to the replayer
// fileKey % len(targets). It returns every result field but Savings, which
// needs the caller's drain first.
func (t *trace) replay(model string, targets []target, after func(int, workload.Op, string) error) (ReplayResult, error) {
	for tn := 0; tn < t.prof.Tenants; tn++ {
		if dir := t.prof.TenantDir(tn); dir != "" {
			if err := targets[0].mkdir(dir); err != nil {
				return ReplayResult{}, fmt.Errorf("mkdir %s: %w", dir, err)
			}
		}
	}

	var hists opHists
	rs := make([]*replayer, len(targets))
	for i, tg := range targets {
		rs[i] = &replayer{
			t: tg, prof: t.prof, hists: &hists, after: after,
			handles: map[int]any{},
			oracle:  map[int][]byte{},
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(rs))
	for tid, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range t.ops {
				if (op.Tenant*t.prof.FilesPerTenant+op.File)%len(rs) != tid {
					continue
				}
				if err := r.run(op, t.payloads[i]); err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", tid, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return ReplayResult{}, err
	default:
	}

	res := ReplayResult{
		Model:    model,
		Profile:  t.prof.Name,
		Threads:  len(rs),
		Ops:      int64(len(t.ops)),
		Elapsed:  elapsed,
		OpCounts: map[string]int64{},
		Latency:  map[string]obs.HistogramStats{},
		Oracle:   map[string][]byte{},
	}
	for _, op := range t.ops {
		res.OpCounts[op.Kind.String()]++
	}
	for k := workload.OpCreate; k <= workload.OpTruncate; k++ {
		if st := hists[k].Stats(); st.Count > 0 {
			res.Latency["op."+k.String()] = st
		}
	}
	for _, r := range rs {
		res.Bytes += r.bytesW
		res.Read += r.bytesR
		for key, data := range r.oracle {
			res.Oracle[t.prof.Path(key/t.prof.FilesPerTenant, key%t.prof.FilesPerTenant)] = data
		}
	}
	return res, nil
}

// verifyOracle reads every oracle file back in full through tg and
// compares it against the expected bytes.
func verifyOracle(tg target, oracle map[string][]byte) error {
	for path, want := range oracle {
		got, err := tg.readFile(path)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", path, err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("oracle %s: size %d, want %d", path, len(got), len(want))
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("oracle %s: content diverges", path)
		}
	}
	return nil
}

// VerifyOracle reads every oracle file in full and compares it against the
// expected bytes (used post-run and again after remount).
func VerifyOracle(fs *denova.FS, oracle map[string][]byte) error {
	return verifyOracle(fsTarget{fs}, oracle)
}

// RunProfile formats a fresh device and replays the profile's op trace with
// opts.Threads workers through the in-process API. Reads are verified
// against the content oracle as they happen; after the replay the dedup
// queue is drained and every surviving file is read back in full against
// the oracle. The returned FS is non-nil only with KeepFS.
func RunProfile(cfg FSConfig, prof workload.Profile, opts ProfileOptions) (ProfileResult, *denova.FS, error) {
	t, err := newTrace(prof)
	if err != nil {
		return ProfileResult{}, nil, err
	}
	dev := t.device(opts.DevSize, opts.Profile)
	fs, err := denova.Mkfs(dev, cfg.denovaConfig())
	if err != nil {
		return ProfileResult{}, nil, err
	}
	tg := fsTarget{fs}
	targets := make([]target, threadsOr2(opts.Threads))
	for i := range targets {
		targets[i] = tg
	}
	var after func(int, workload.Op, string) error
	if opts.GCEvery > 0 {
		after = func(n int, op workload.Op, path string) error {
			if n%opts.GCEvery != 0 || op.Kind == workload.OpDelete {
				return nil
			}
			if _, err := fs.ForceGC(path); err != nil {
				return fmt.Errorf("force-gc %s: %w", path, err)
			}
			return nil
		}
	}

	devBefore := dev.Stats()
	core, err := t.replay(cfg.Label(), targets, after)
	if err != nil {
		fs.Unmount()
		return ProfileResult{}, nil, err
	}
	drainStart := time.Now()
	fs.Sync()
	res := ProfileResult{ReplayResult: core, Drain: time.Since(drainStart)}
	res.Savings = fs.Stats().Space.Savings()
	res.QueuePeak = fs.StatsSnapshot().Queue.Peak
	res.Dev = dev.Stats().Sub(devBefore)

	// Quiesced end-state verification: every surviving file reads back as
	// the oracle says, through the fully drained dedup pipeline.
	if err := verifyOracle(tg, res.Oracle); err != nil {
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

// RunProfileOverServer formats a fresh device, mounts it, starts
// denova-serve on an ephemeral loopback port, and replays the profile
// through opts.Threads client connections, so every op crosses the codec,
// the admission controller and the op scheduler. After the replay a COMMIT
// drains the dedup pipeline and every surviving file is read back over the
// wire against the oracle.
func RunProfileOverServer(cfg FSConfig, prof workload.Profile, opts ServeProfileOptions) (ServeProfileResult, error) {
	t, err := newTrace(prof)
	if err != nil {
		return ServeProfileResult{}, err
	}
	dev := t.device(opts.DevSize, opts.Profile)
	dcfg := cfg.denovaConfig()
	dcfg.Tracing = opts.Tracing
	dcfg.SlowSpanThreshold = opts.SlowSpanThreshold
	fs, err := denova.Mkfs(dev, dcfg)
	if err != nil {
		return ServeProfileResult{}, err
	}
	defer fs.Unmount()

	srv := server.New(fs, opts.Server)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return ServeProfileResult{}, err
	}
	defer srv.Close()

	clOpts := client.Options{}
	if opts.TraceWire {
		clOpts.Tracer = fs.Tracer()
		clOpts.TraceContext = true
	}
	setup, err := client.Dial(addr, clOpts)
	if err != nil {
		return ServeProfileResult{}, err
	}
	defer setup.Close()
	targets := make([]target, threadsOr2(opts.Threads))
	for i := range targets {
		cl, err := client.Dial(addr, clOpts)
		if err != nil {
			return ServeProfileResult{}, err
		}
		defer cl.Close()
		targets[i] = clientTarget{cl}
	}

	core, err := t.replay(cfg.Label(), targets, nil)
	if err != nil {
		return ServeProfileResult{}, err
	}
	// COMMIT over the wire quiesces the dedup pipeline before verification.
	if err := setup.Commit(); err != nil {
		return ServeProfileResult{}, err
	}
	res := ServeProfileResult{ReplayResult: core, OpLatency: map[string]obs.HistogramStats{}}
	res.Savings = fs.Stats().Space.Savings()
	res.Snapshot = fs.Metrics()
	res.Shed = res.Snapshot.Counters["serve.shed"]
	res.Slow = fs.SlowSpans()
	for _, op := range wire.Ops() {
		name := "serve.op." + op.String()
		if st, ok := res.Snapshot.Histograms[name]; ok && st.Count > 0 {
			res.OpLatency[name] = st
		}
	}

	// Quiesced end-state verification, still over the wire.
	if err := verifyOracle(clientTarget{setup}, res.Oracle); err != nil {
		return ServeProfileResult{}, err
	}
	return res, setup.Close()
}

// ReplayTraceOverClient replays prof's full op trace through one client
// connection: tenant mkdirs, every op verified against the content oracle
// as it happens, then COMMIT and a full oracle read-back over the wire. It
// returns the expected end state (path → bytes). This is the
// single-connection building block the denova-serve smoke test drives
// against an externally started server.
func ReplayTraceOverClient(cl *client.Client, prof workload.Profile) (map[string][]byte, error) {
	t, err := newTrace(prof)
	if err != nil {
		return nil, err
	}
	tg := clientTarget{cl}
	res, err := t.replay("", []target{tg}, nil)
	if err != nil {
		return nil, err
	}
	if err := cl.Commit(); err != nil {
		return nil, err
	}
	if err := verifyOracle(tg, res.Oracle); err != nil {
		return nil, err
	}
	return res.Oracle, nil
}
