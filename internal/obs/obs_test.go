package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- histogram bucket layout ---

func TestBucketBoundaries(t *testing.T) {
	// Exact buckets 0..7.
	for v := int64(0); v < histExact; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0", got)
	}
	// Every bucket must contain its own lower bound, and lower bounds must
	// be strictly increasing.
	maxIdx := bucketIndex(int64(^uint64(0) >> 1))
	if maxIdx >= HistBuckets {
		t.Fatalf("max value maps to bucket %d >= %d", maxIdx, HistBuckets)
	}
	for i := 0; i <= maxIdx; i++ {
		lo := bucketLower(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)=%d) = %d", i, lo, got)
		}
		if i > 0 && lo <= bucketLower(i-1) {
			t.Fatalf("bucketLower not increasing at %d: %d <= %d", i, lo, bucketLower(i-1))
		}
		// Upper bound is exclusive: upper-1 stays in bucket i.
		if up := bucketUpper(i); up > lo && i < maxIdx {
			if got := bucketIndex(up - 1); got != i {
				t.Fatalf("bucketIndex(upper-1=%d) = %d, want %d", up-1, got, i)
			}
			if got := bucketIndex(up); got != i+1 {
				t.Fatalf("bucketIndex(upper=%d) = %d, want %d", up, got, i+1)
			}
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Sub-bucketing with 2 mantissa bits bounds relative width at 25%.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		idx := bucketIndex(v)
		lo, hi := bucketLower(idx), bucketUpper(idx)
		if v < lo || v >= hi {
			t.Fatalf("v=%d outside its bucket [%d,%d)", v, lo, hi)
		}
		if lo >= histExact {
			width := hi - lo
			if float64(width) > 0.25*float64(lo)+1 {
				t.Fatalf("bucket %d width %d too wide for lower %d", idx, width, lo)
			}
		}
	}
}

// --- quantiles vs sorted-sample oracle ---

func TestQuantileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var h Histogram
		n := 2000 + rng.Intn(3000)
		samples := make([]int64, n)
		for i := range samples {
			// Log-uniform latencies, 1ns .. ~1s.
			v := int64(1) << uint(rng.Intn(30))
			v += rng.Int63n(v)
			samples[i] = v
			h.ObserveNs(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.95, 0.99} {
			oracle := samples[int(q*float64(n-1))]
			got := h.Quantile(q)
			// Bucket quantization bounds error at 25% plus interpolation slop.
			lo := float64(oracle) * 0.70
			hi := float64(oracle) * 1.30
			if float64(got) < lo || float64(got) > hi {
				t.Fatalf("trial %d q=%v: got %d, oracle %d (allowed [%g,%g])", trial, q, got, oracle, lo, hi)
			}
		}
		if got, want := h.Quantile(1.0), samples[n-1]; got != want {
			t.Fatalf("q=1.0: got %d, want exact max %d", got, want)
		}
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	h.ObserveNs(12345)
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		if got := h.Quantile(q); got != 12345 {
			t.Fatalf("single-sample q=%v = %d, want 12345 (clamped to max)", q, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var whole Histogram
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = &Histogram{}
	}
	for i := 0; i < 8000; i++ {
		v := rng.Int63n(1 << 20)
		whole.ObserveNs(v)
		shards[i%len(shards)].ObserveNs(v)
	}
	var merged Histogram
	for _, s := range shards {
		merged.Merge(s)
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", merged.Count(), whole.Count())
	}
	ws, ms := whole.Stats(), merged.Stats()
	if !reflect.DeepEqual(ws, ms) {
		t.Fatalf("merged stats differ:\n whole %+v\nmerged %+v", ws, ms)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const gor, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.ObserveNs(rng.Int63n(1 << 22))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != gor*per {
		t.Fatalf("count %d, want %d", h.Count(), gor*per)
	}
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i]
	}
	if inBuckets != gor*per {
		t.Fatalf("bucket sum %d, want %d", inBuckets, gor*per)
	}
}

// --- registry ---

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.ops").Add(3)
	r.SetGauge("b.depth", 17)
	r.Histogram("c.lat").ObserveNs(100)
	if r.Counter("a.ops") != r.Counter("a.ops") {
		t.Fatal("Counter not idempotent")
	}
	snap := r.Snapshot()
	if snap.Counters["a.ops"] != 3 || snap.Gauges["b.depth"] != 17 || snap.Histograms["c.lat"].Count != 1 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	// Snapshot JSON round-trips.
	b, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.ops"] != 3 {
		t.Fatalf("round-trip lost counter: %+v", back)
	}
}

// TestRegisterFields covers layer-owned metrics: tagged fields are read in
// place, untagged ones are skipped, LoadFields copies counters into a view
// by field name, and computed metrics run after the registry lock is
// released (this one takes it again, which would deadlock otherwise).
func TestRegisterFields(t *testing.T) {
	r := NewRegistry()
	var c struct {
		Ops   Counter `metric:"x.ops"`
		Depth Gauge   `metric:"x.depth"`
		Other Counter
	}
	r.RegisterFields(&c)
	c.Ops.Add(3)
	if got := c.Depth.Add(5); got != 5 {
		t.Fatalf("Gauge.Add returned %d, want 5", got)
	}
	r.GaugeFunc("x.via_registry", func() int64 { return r.Counter("x.ops").Load() })
	r.CounterFunc("x.double", func() int64 { return 2 * c.Ops.Load() })
	snap := r.Snapshot()
	if snap.Counters["x.ops"] != 3 || snap.Gauges["x.depth"] != 5 ||
		snap.Gauges["x.via_registry"] != 3 || snap.Counters["x.double"] != 6 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 2 {
		t.Fatalf("untagged field registered: %+v", snap)
	}
	var view struct{ Ops, Missing int64 }
	LoadFields(&view, &c)
	if view.Ops != 3 || view.Missing != 0 {
		t.Fatalf("LoadFields view = %+v", view)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("nova.write.ops").Add(5)
	r.SetGauge("dedup.queue.len", 2)
	r.Histogram("nova.write").ObserveNs(1000)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"denova_nova_write_ops 5",
		"denova_dedup_queue_len 2",
		`denova_nova_write_ns{quantile="0.5"}`,
		"denova_nova_write_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// --- tracer ---

func TestTracerDropOldest(t *testing.T) {
	// Single shard, tiny ring: emit 3x capacity, only the newest survive.
	tr := NewTracer(TraceOps, 1, 64)
	cap64 := len(tr.shards[0].slots)
	total := cap64 * 3
	for i := 0; i < total; i++ {
		tr.Emit(OpWrite, uint64(i), uint64(i), time.Duration(i))
	}
	evs := tr.Events()
	if len(evs) != cap64 {
		t.Fatalf("ring holds %d events, want %d", len(evs), cap64)
	}
	// Survivors must be exactly the last cap64 emissions, in order.
	for i, ev := range evs {
		wantArg := uint64(total - cap64 + i)
		if ev.Arg != wantArg {
			t.Fatalf("event %d: arg %d, want %d (drop-oldest violated)", i, ev.Arg, wantArg)
		}
	}
	if got, want := tr.Dropped(), int64(total-cap64); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	if got := tr.Emitted(); got != int64(total) {
		t.Fatalf("Emitted() = %d, want %d", got, total)
	}
}

func TestTracerDropOldestProperty(t *testing.T) {
	// Property: for any emission count across any shard layout, the ring
	// retains min(count, capacity) events per shard and the retained seqs
	// are the highest ones.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.Intn(4)
		tr := NewTracer(TraceOps, shards, 64*shards)
		n := rng.Intn(1000)
		for i := 0; i < n; i++ {
			tr.EmitShard(rng.Intn(shards), OpDedupProcess, uint64(i), 0, 0)
		}
		for s := range tr.shards {
			sh := &tr.shards[s]
			emitted := int64(sh.next)
			want := emitted
			if c := int64(len(sh.slots)); want > c {
				want = c
			}
			var got int64
			minSeq := uint64(1<<63 - 1)
			for i := range sh.slots {
				if ev, ok := sh.load(uint64(i)); ok && ev.Op != OpNone {
					got++
					if ev.Seq < minSeq {
						minSeq = ev.Seq
					}
				}
			}
			if got != want {
				t.Fatalf("trial %d shard %d: %d live events, want %d", trial, s, got, want)
			}
			if want > 0 && minSeq != uint64(emitted)-uint64(want) {
				t.Fatalf("trial %d shard %d: oldest seq %d, want %d", trial, s, minSeq, uint64(emitted)-uint64(want))
			}
		}
	}
}

func TestTracerOffIsNoop(t *testing.T) {
	tr := NewTracer(TraceOff, 2, 128)
	tr.Emit(OpWrite, 1, 1, time.Microsecond)
	if tr.Emitted() != 0 || len(tr.Events()) != 0 {
		t.Fatal("disabled tracer recorded events")
	}
	var nilT *Tracer
	nilT.Emit(OpWrite, 1, 1, 0) // must not panic
	if nilT.Enabled() || nilT.Frozen() || nilT.Dropped() != 0 {
		t.Fatal("nil tracer accessors wrong")
	}
}

func TestTracerFreezePreservesRing(t *testing.T) {
	tr := NewTracer(TraceFine, 2, 128)
	for i := 0; i < 10; i++ {
		tr.Emit(OpWrite, uint64(i), 0, 0)
	}
	if !tr.Fine() {
		t.Fatal("Fine() false at TraceFine")
	}
	tr.Freeze()
	if !tr.Frozen() {
		t.Fatal("not frozen after Freeze")
	}
	before := len(tr.Events())
	// Post-freeze emissions must be dropped.
	for i := 0; i < 50; i++ {
		tr.Emit(OpWrite, 999, 0, 0)
	}
	if got := len(tr.Events()); got != before {
		t.Fatalf("frozen ring changed: %d -> %d events", before, got)
	}
	tr.Freeze() // idempotent
	if !tr.Frozen() {
		t.Fatal("double freeze lost frozen state")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(TraceOps, 4, 1024)
	var wg sync.WaitGroup
	const gor, per = 8, 2000
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.EmitShard(id, OpDedupProcess, uint64(i), 0, 0)
			}
		}(g)
	}
	wg.Wait()
	if tr.Emitted() != gor*per {
		t.Fatalf("emitted %d, want %d", tr.Emitted(), gor*per)
	}
}

func TestTraceEncodeDecode(t *testing.T) {
	tr := NewTracer(TraceOps, 1, 64)
	tr.Emit(OpWrite, 7, 4096, 1500*time.Nanosecond)
	tr.Emit(OpDedupFingerprint, 7, 0, 900*time.Nanosecond)
	tr.Freeze()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dump, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !dump.Frozen || len(dump.Events) != 2 {
		t.Fatalf("bad dump: frozen=%v events=%d", dump.Frozen, len(dump.Events))
	}
	if dump.Events[0].OpName != "nova.write" || dump.Events[1].OpName != "dedup.stage.fingerprint" {
		t.Fatalf("op names lost: %+v", dump.Events)
	}
	if FormatEvent(dump.Events[0].Event) == "" {
		t.Fatal("FormatEvent empty")
	}
	// Nil tracer encodes an empty dump.
	buf.Reset()
	if err := EncodeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if d, err := DecodeTrace(&buf); err != nil || len(d.Events) != 0 {
		t.Fatalf("nil tracer dump: %v %+v", err, d)
	}
}

func TestHTTPServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("nova.write.ops").Add(9)
	r.Histogram("nova.write").ObserveNs(2500)
	tr := NewTracer(TraceOps, 1, 64)
	tr.Emit(OpWrite, 1, 0, time.Microsecond)
	srv, err := Serve("127.0.0.1:0", r.Snapshot, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "denova_nova_write_ops 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if snap.Counters["nova.write.ops"] != 9 {
		t.Fatalf("bad json snapshot: %+v", snap)
	}
	var dump TraceDump
	if err := json.Unmarshal([]byte(get("/trace?n=10")), &dump); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if len(dump.Events) != 1 || dump.Events[0].OpName != "nova.write" {
		t.Fatalf("bad trace dump: %+v", dump)
	}
}
