// Package obs is DeNOVA's observability layer: a low-overhead,
// concurrency-safe metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms) plus a sharded ring-buffer event tracer
// (trace.go) and exporters (export.go, http.go).
//
// The design goal is that instrumentation can stay enabled on hot paths:
// observing a latency costs a handful of atomic adds (no locks, no
// allocation), and tracing is a single atomic load when disabled.
//
// Every number exists once. A layer (pmem, nova, fact, dedup, server)
// declares the counters it owns as Counter/Gauge struct fields, counts into
// them unconditionally, and registers their addresses under their metric
// names in one place; derived values (free blocks, queue depth, worker
// sums) are registered as functions. A scrape reads every value in place,
// so the registry map is never touched on an operation path and there is
// no copy to drift.
package obs

import (
	"maps"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use: layers declare counters as tagged struct fields and register them
// (RegisterFields), so the field is the only copy of the number. Counters
// are never reset; measure a phase as the difference of two reads.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { atomic.AddInt64(&c.v, n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { atomic.AddInt64(&c.v, 1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is an instantaneous int64 value (queue depth, free blocks, ...).
type Gauge struct{ v int64 }

// Store sets the gauge.
func (g *Gauge) Store(n int64) { atomic.StoreInt64(&g.v, n) }

// Add moves the gauge by n and returns the new value, so a gauge can be
// the only copy of a level that admission decisions compare against.
func (g *Gauge) Add(n int64) int64 { return atomic.AddInt64(&g.v, n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return atomic.LoadInt64(&g.v) }

// Histogram bucket layout: values 0..7 ns get exact buckets; beyond that
// each power-of-two octave is split into 4 sub-buckets (2 mantissa bits),
// bounding the relative quantization error at 1/4. The full int64 range
// needs (63-3)*4 + 8 = 248 buckets; 256 leaves headroom.
const (
	histExact   = 8 // exact buckets for values < 8
	histSubBits = 2 // sub-buckets per octave = 1<<histSubBits
	HistBuckets = 256
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histExact {
		return int(u)
	}
	msb := bits.Len64(u) - 1 // >= 3
	sub := (u >> (uint(msb) - histSubBits)) & (1<<histSubBits - 1)
	return msb*(1<<histSubBits) + int(sub) - 4
}

// bucketLower returns the smallest value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	octave := (i + 4) / (1 << histSubBits)
	sub := (i + 4) % (1 << histSubBits)
	return int64(4+sub) << (uint(octave) - histSubBits)
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i+1 >= HistBuckets {
		return int64(^uint64(0) >> 1)
	}
	return bucketLower(i + 1)
}

// Exemplar windows: the 256 buckets fold into 8 coarse latency windows
// (32 buckets each, i.e. 8 octaves per window), and each window keeps one
// exemplar — the trace id of the slowest recent sample that landed there.
// That is enough to resolve "what was the p99" to a concrete trace while
// costing a fixed 8 slots per histogram.
const (
	exemplarWindows = 8
	exemplarShift   = 5 // bucketIndex >> 5 → window
	// exemplarMaxAgeNs lets a fresher (even if faster) sample replace a
	// stale exemplar, so exemplars track recent behavior, not the
	// all-time worst.
	exemplarMaxAgeNs = int64(10 * time.Second)
)

// exemplarSlot is one window's exemplar. Fields are individually atomic;
// a torn read (value from one sample, trace from another) is acceptable
// for a debugging aid and never corrupts the histogram itself.
type exemplarSlot struct {
	val   int64
	trace uint64
	ts    int64
}

// Exemplar links a recorded latency to the trace that exhibited it.
type Exemplar struct {
	ValueNs int64  `json:"value_ns"`
	Trace   uint64 `json:"-"`
	TraceID string `json:"trace_id"`
}

// Histogram is a fixed-bucket latency histogram in nanoseconds. All methods
// are safe for concurrent use; Observe performs three atomic adds and at
// most one CAS loop (for the max), with no allocation.
type Histogram struct {
	count     int64
	sum       int64
	max       int64
	buckets   [HistBuckets]int64
	exemplars [exemplarWindows]exemplarSlot
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(d.Nanoseconds()) }

// ObserveNs records one latency in nanoseconds.
func (h *Histogram) ObserveNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	atomic.AddInt64(&h.buckets[bucketIndex(ns)], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, ns)
	for {
		m := atomic.LoadInt64(&h.max)
		if ns <= m || atomic.CompareAndSwapInt64(&h.max, m, ns) {
			return
		}
	}
}

// ObserveSpan records one duration and, when trace is nonzero, offers it
// as a latency exemplar for its window. With trace == 0 (tracing off, or
// an untraced caller) it is exactly ObserveNs plus one branch, so span
// instrumentation adds nothing to the untraced hot path.
func (h *Histogram) ObserveSpan(d time.Duration, trace uint64) {
	ns := d.Nanoseconds()
	h.ObserveNs(ns)
	if trace == 0 {
		return
	}
	w := bucketIndex(ns) >> exemplarShift
	e := &h.exemplars[w]
	now := time.Now().UnixNano()
	if ns < atomic.LoadInt64(&e.val) && now-atomic.LoadInt64(&e.ts) < exemplarMaxAgeNs {
		return
	}
	atomic.StoreInt64(&e.val, ns)
	atomic.StoreUint64(&e.trace, trace)
	atomic.StoreInt64(&e.ts, now)
}

// Exemplars returns the current per-window exemplars, ascending by value.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := range h.exemplars {
		e := &h.exemplars[i]
		tr := atomic.LoadUint64(&e.trace)
		if tr == 0 {
			continue
		}
		v := atomic.LoadInt64(&e.val)
		out = append(out, Exemplar{ValueNs: v, Trace: tr, TraceID: TraceIDString(tr)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ValueNs < out[j].ValueNs })
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// Buckets returns the non-empty buckets (per-bucket counts, not
// cumulative) with their exclusive nanosecond upper bounds, for exporters
// that need the raw distribution.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i := 0; i < HistBuckets; i++ {
		if n := atomic.LoadInt64(&h.buckets[i]); n != 0 {
			out = append(out, BucketCount{UpperNs: bucketUpper(i), Count: n})
		}
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	UpperNs int64 // exclusive upper bound, ns
	Count   int64
}

// Merge folds other into h (per-shard histogram aggregation). other should
// be quiescent; concurrent observers on h are fine.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := 0; i < HistBuckets; i++ {
		if n := atomic.LoadInt64(&other.buckets[i]); n != 0 {
			atomic.AddInt64(&h.buckets[i], n)
		}
	}
	atomic.AddInt64(&h.count, atomic.LoadInt64(&other.count))
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&other.sum))
	om := atomic.LoadInt64(&other.max)
	for {
		m := atomic.LoadInt64(&h.max)
		if om <= m || atomic.CompareAndSwapInt64(&h.max, m, om) {
			return
		}
	}
}

// Quantile estimates the q-th quantile (0 < q <= 1) in nanoseconds by
// cumulative bucket counts with linear interpolation inside the final
// bucket, clamped to the exact observed maximum. Returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := atomic.LoadInt64(&h.count)
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		n := atomic.LoadInt64(&h.buckets[i])
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketLower(i), bucketUpper(i)
			est := lo + int64(float64(hi-lo)*float64(target-cum)/float64(n))
			if m := atomic.LoadInt64(&h.max); est > m {
				est = m
			}
			return est
		}
		cum += n
	}
	return atomic.LoadInt64(&h.max)
}

// HistogramStats is a point-in-time summary of a histogram, in the stable
// shape the JSON snapshot exports.
type HistogramStats struct {
	Count  int64   `json:"count"`
	SumNs  int64   `json:"sum_ns"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
	// Exemplars, when span tracing fed this histogram, link latency
	// windows to trace ids (ascending by value; absent otherwise).
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// ExemplarNear resolves a latency (e.g. P99Ns) to the exemplar whose
// value is closest from above — the concrete trace to look at for "what
// does a p99 op spend its time on". Falls back to the largest exemplar
// when none is ≥ ns; ok is false when there are no exemplars at all.
func (st HistogramStats) ExemplarNear(ns int64) (Exemplar, bool) {
	if len(st.Exemplars) == 0 {
		return Exemplar{}, false
	}
	for _, e := range st.Exemplars {
		if e.ValueNs >= ns {
			return e, true
		}
	}
	return st.Exemplars[len(st.Exemplars)-1], true
}

// Stats summarizes the histogram. The summary is computed from one pass of
// atomic loads; concurrent observers may make Count/Sum slightly newer than
// the percentiles, which is fine for a monitoring snapshot.
func (h *Histogram) Stats() HistogramStats {
	c := atomic.LoadInt64(&h.count)
	s := atomic.LoadInt64(&h.sum)
	st := HistogramStats{
		Count: c,
		SumNs: s,
		P50Ns: h.Quantile(0.50),
		P95Ns: h.Quantile(0.95),
		P99Ns: h.Quantile(0.99),
		MaxNs: atomic.LoadInt64(&h.max),
	}
	if c > 0 {
		st.MeanNs = float64(s) / float64(c)
	}
	st.Exemplars = h.Exemplars()
	return st
}

// Registry is a named collection of metrics. It holds pointers to the
// counters and gauges layers own (plus the computed metrics), never copies.
// Lookups lock; hot paths should resolve their metrics once and keep the
// pointers.
type Registry struct {
	mu    sync.Mutex //denova:locks(obs.registry)
	ctrs  map[string]*Counter
	gaugs map[string]*Gauge
	hists map[string]*Histogram
	cfns  map[string]func() int64 // computed counters
	gfns  map[string]func() int64 // computed gauges
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gaugs: make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
		cfns:  make(map[string]func() int64),
		gfns:  make(map[string]func() int64),
	}
}

// lookup returns m[name], creating it on first use.
func lookup[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = new(T)
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return lookup(r, r.ctrs, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return lookup(r, r.gaugs, name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return lookup(r, r.hists, name) }

// RegisterFields registers the Counter and Gauge fields of the struct c
// points to, each under the name its `metric` tag gives; untagged fields
// are skipped and a tagged field must be exported. This is how a layer
// declares its counters: the name sits on the field, the field is the only
// copy of the number, and the registry points at it so every scrape reads
// it in place.
func (r *Registry) RegisterFields(c any) {
	v := reflect.ValueOf(c).Elem()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < v.NumField(); i++ {
		name, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		switch m := v.Field(i).Addr().Interface().(type) {
		case *Counter:
			r.ctrs[name] = m
		case *Gauge:
			r.gaugs[name] = m
		}
	}
}

// LoadFields copies each Counter field of the struct src points to into
// the int64 field of the same name, if any, in the struct dst points to.
// The layer Stats views are read this way from the registered counters, so
// a view and a scrape can never disagree.
func LoadFields(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < s.NumField(); i++ {
		c, ok := s.Field(i).Addr().Interface().(*Counter)
		if f := d.FieldByName(s.Type().Field(i).Name); ok && f.IsValid() {
			f.SetInt(c.Load())
		}
	}
}

// CounterFunc registers a computed counter (e.g. a sum over per-worker
// tallies). Snapshot calls f after releasing the registry lock, so f may
// take any lock the declared order puts before obs.registry.
func (r *Registry) CounterFunc(name string, f func() int64) {
	r.mu.Lock()
	r.cfns[name] = f
	r.mu.Unlock()
}

// GaugeFunc is CounterFunc for gauges (free blocks, queue depth, ...).
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	r.gfns[name] = f
	r.mu.Unlock()
}

// SetGauge sets an instantaneous value.
func (r *Registry) SetGauge(name string, v int64) { r.Gauge(name).Store(v) }

// Snapshot captures every metric. The maps are freshly allocated; the
// caller owns them. The registry lock only guards collecting the metric
// set: values, including computed ones, are read after it is released.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ctrs := make(map[string]func() int64, len(r.ctrs)+len(r.cfns))
	gaugs := make(map[string]func() int64, len(r.gaugs)+len(r.gfns))
	for n, c := range r.ctrs {
		ctrs[n] = c.Load
	}
	for n, g := range r.gaugs {
		gaugs[n] = g.Load
	}
	maps.Copy(ctrs, r.cfns)
	maps.Copy(gaugs, r.gfns)
	hists := maps.Clone(r.hists)
	r.mu.Unlock()

	snap := Snapshot{
		Counters:   make(map[string]int64, len(ctrs)),
		Gauges:     make(map[string]int64, len(gaugs)),
		Histograms: make(map[string]HistogramStats, len(hists)),
		Buckets:    make(map[string][]BucketCount, len(hists)),
	}
	for n, f := range ctrs {
		snap.Counters[n] = f()
	}
	for n, f := range gaugs {
		snap.Gauges[n] = f()
	}
	for n, h := range hists {
		snap.Histograms[n] = h.Stats()
		if b := h.Buckets(); len(b) > 0 {
			snap.Buckets[n] = b
		}
	}
	return snap
}
