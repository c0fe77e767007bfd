package denova

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"denova/internal/obs"
	"denova/internal/pmem"
)

// --- SpaceStats.Savings edge cases (ISSUE 5, satellite 3) ---

func TestSpaceSavingsEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		logical  int64
		physical int64
		want     float64
	}{
		{"empty fs", 0, 0, 0},
		{"zero logical, leaked physical", 0, 5, 0}, // no div-by-zero, no negative
		{"no dedup", 100, 100, 0},
		{"half deduped", 100, 50, 0.5},
		{"full dedup to one block", 100, 1, 0.99},
		{"single page", 1, 1, 0},
	}
	for _, c := range cases {
		s := SpaceStats{LogicalPages: c.logical, PhysicalPages: c.physical}
		if got := s.Savings(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Savings() = %v, want %v", c.name, got, c.want)
		}
	}
}

// --- Stats snapshot semantics: defensive copies ---

func TestStatsSnapshotIsDefensiveCopy(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate, Workers: 2})
	defer fs.Unmount()
	writeAll(t, fs, "a", npages(1, 1, 2, 2, 3))
	fs.Sync()
	st := fs.Stats()
	if st.Queue.Shards == nil {
		t.Fatal("Queue.Shards nil in a dedup mode")
	}
	// Mutating the returned slices must not affect a later snapshot.
	for i := range st.Queue.Shards {
		st.Queue.Shards[i] = -999
	}
	for i := range st.Workers {
		st.Workers[i].Nodes = -999
	}
	st2 := fs.Stats()
	for _, v := range st2.Queue.Shards {
		if v == -999 {
			t.Fatal("Queue.Shards aliases internal state")
		}
	}
	for _, w := range st2.Workers {
		if w.Nodes == -999 {
			t.Fatal("Workers aliases internal state")
		}
	}
}

// --- Metrics smoke: ≥6 instrumented op types across nova/dedup/fact ---

func TestMetricsExposesOpHistograms(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate, Workers: 2})
	data := npages(1, 2, 1, 2, 3, 3, 4, 5, 1)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	f, _ := fs.Open("a")
	readAll(t, f)
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	fs.Sync()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	raw, err := fs.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("MetricsJSON does not round-trip: %v", err)
	}
	want := []string{
		"nova.write", "nova.read", "nova.truncate",
		"dedup.process", "dedup.queue_wait",
		"fact.begin_txn", "fact.commit_batch",
	}
	for _, name := range want {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %q missing from snapshot", name)
			continue
		}
		if h.Count == 0 {
			t.Errorf("histogram %q has zero observations", name)
		}
		if h.P50Ns < 0 || h.P95Ns < h.P50Ns || h.P99Ns < h.P95Ns || h.MaxNs < h.P99Ns {
			t.Errorf("histogram %q percentiles not monotone: %+v", name, h)
		}
	}
	// Layer counters are registered in the same snapshot.
	for _, name := range []string{"nova.writes", "fact.lookups", "dedup.entries_processed", "pmem.fences"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q zero or missing", name)
		}
	}
	if snap.Gauges["space.savings_bp"] == 0 {
		t.Error("space.savings_bp gauge zero: duplicate workload saw no dedup")
	}

	// Every layer counter Stats reports is registered, the staged relink
	// path included: after a staged append plus Sync each reads the same in
	// both.
	_, sfs := mkFS(t, Config{Mode: ModeImmediate, Staging: StagingConfig{MaxPages: 4}})
	sf := writeAll(t, sfs, "staged", npages(1, 2))
	if _, err := sf.WriteAt(npages(1, 3), 2*4096); err != nil {
		t.Fatal(err)
	}
	sfs.Sync()
	st, m := sfs.Stats(), sfs.Metrics().Counters
	if st.FS.Relinks == 0 {
		t.Fatal("staged append never relinked")
	}
	for name, want := range map[string]int64{
		"pmem.read_ops":     st.Device.ReadOps,
		"nova.relinks":      st.FS.Relinks,
		"nova.relink_runs":  st.FS.RelinkRuns,
		"nova.relink_pages": st.FS.RelinkPages,
		"dedup.pages_stale": st.Dedup.PagesStale,
		"dedup.pages_owned": st.Dedup.PagesOwned,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("counter %q = %d (present %v), Stats says %d", name, got, ok, want)
		}
	}
	if err := sfs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// --- Concurrent Stats()/Metrics() under full load (run with -race) ---

func TestStatsMetricsConcurrent(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate, Workers: 4, Tracing: TraceFine})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", w)
			f, err := fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			buf := page(byte(w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				copy(buf, page(byte(i%4)))
				if _, err := f.WriteAt(buf, int64(i%64)*4096); err != nil {
					t.Error(err)
					return
				}
				if i%128 == 127 {
					f.Truncate(32 * 4096)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		buf := make([]byte, 4096)
		f, err := fs.Open("f0")
		for err != nil {
			f, err = fs.Open("f0")
		}
		for {
			select {
			case <-stop:
				return
			default:
				f.ReadAt(buf, 0)
			}
		}
	}()
	deadline := time.After(300 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			st := fs.Stats()
			if st.Queue.Len < 0 {
				t.Error("negative queue length")
			}
			snap := fs.Metrics()
			if snap.Histograms["nova.write"].Count < 0 {
				t.Error("negative histogram count")
			}
			fs.TraceEvents(16)
		}
	}
	close(stop)
	wg.Wait()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// --- Crash injection preserves the trace ring for post-mortem dumps ---

func TestCrashPreservesTraceRing(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate, Workers: 1, Tracing: TraceFine})
	dev.SetCrashAfter(300)
	crashed := pmem.RunToCrash(func() {
		f, err := fs.Create("a")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 512; i++ {
			if _, err := f.WriteAt(page(byte(i%3)), int64(i)*4096); err != nil {
				t.Error(err)
				return
			}
		}
		fs.Sync()
	})
	if !crashed {
		t.Fatal("workload finished before the crash point; raise the write count")
	}
	tr := fs.Tracer()
	if !tr.Frozen() {
		t.Fatal("tracer not frozen after injected crash")
	}
	evs := fs.TraceEvents(0)
	if len(evs) == 0 {
		t.Fatal("ring empty after crash")
	}
	var sawCrash, sawWrite bool
	for _, ev := range evs {
		switch ev.Op {
		case obs.OpCrash:
			sawCrash = true
		case obs.OpWrite:
			sawWrite = true
		}
	}
	if !sawCrash {
		t.Error("no crash marker event in the frozen ring")
	}
	if !sawWrite {
		t.Error("no write events survived in the frozen ring")
	}
	// Emitting after freeze must be a no-op.
	before := tr.Emitted()
	tr.Emit(obs.OpWrite, 1, 1, 0)
	if tr.Emitted() != before {
		t.Error("tracer accepted an event after freeze")
	}
	// The frozen ring round-trips through the sidecar encoding.
	var sb strings.Builder
	if err := obs.EncodeTrace(&sb, tr); err != nil {
		t.Fatal(err)
	}
	dump, err := obs.DecodeTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !dump.Frozen || len(dump.Events) != len(evs) {
		t.Errorf("sidecar dump frozen=%v events=%d, want frozen=true events=%d",
			dump.Frozen, len(dump.Events), len(evs))
	}
}

// --- Recovery passes feed the shared registry ---

func TestRecoveryFeedsRegistry(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate})
	writeAll(t, fs, "a", npages(1, 2, 3))
	fs.Sync()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, info, err := Mount(dev, Config{Mode: ModeImmediate})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if len(info.Passes) == 0 {
		t.Fatal("no recovery passes reported")
	}
	snap := fs2.Metrics()
	if got := snap.Histograms["recovery.pass"].Count; got != int64(len(info.Passes)) {
		t.Errorf("recovery.pass histogram count = %d, want %d", got, len(info.Passes))
	}
	for _, p := range info.Passes {
		name := "recovery.pass." + p.Name + ".wall_ns"
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing", name)
		}
	}
	if snap.Counters["recovery.total_wall_ns"] != info.TotalWall().Nanoseconds() {
		t.Error("recovery.total_wall_ns does not match RecoveryInfo.TotalWall")
	}
}

// --- HTTP endpoint serves all three formats from a live FS ---

func TestServeMetricsEndpoint(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate, Tracing: TraceOps})
	defer fs.Unmount()
	writeAll(t, fs, "a", npages(1, 1, 2))
	fs.Sync()
	srv, err := fs.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if prom := get("/metrics"); !strings.Contains(prom, "denova_nova_write") {
		t.Errorf("/metrics missing denova_nova_write series:\n%.400s", prom)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if snap.Histograms["nova.write"].Count == 0 {
		t.Error("/metrics.json nova.write count zero")
	}
	var dump obs.TraceDump
	if err := json.Unmarshal([]byte(get("/trace?n=8")), &dump); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	if len(dump.Events) == 0 {
		t.Error("/trace returned no events at TraceOps level")
	}
}

// --- Linger-hook composition: obs histogram and user hook both observe ---

func TestLingerHookComposesWithObs(t *testing.T) {
	_, fs := mkFS(t, Config{Mode: ModeImmediate, Workers: 1})
	var mu sync.Mutex
	var userCalls int
	fs.SetLingerHook(func(d time.Duration) {
		mu.Lock()
		userCalls++
		mu.Unlock()
	})
	writeAll(t, fs, "a", npages(1, 2, 1, 2))
	fs.Sync()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	calls := userCalls
	mu.Unlock()
	if calls == 0 {
		t.Error("user linger hook never called")
	}
	if got := fs.Metrics().Histograms["dedup.queue_wait"].Count; got == 0 {
		t.Error("dedup.queue_wait histogram empty despite dequeues")
	}
}
