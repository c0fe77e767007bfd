package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"denova"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortRun(t *testing.T, workload string, traced bool) result {
	t.Helper()
	o := options{workload: workload, seconds: 1, trace: traced, setupReps: 1, recoveryReps: 1}
	spec, err := lookupWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	o.seed = spec.profile.Seed + 1000 // a non-default seed
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", workload, traced, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestEveryMetricAppears runs each workload briefly, untraced and traced,
// and checks that every metric BENCHMARK.json names appears with its unit
// and that nothing else does.
func TestEveryMetricAppears(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res := shortRun(t, w.Name, traced)
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedReadIsCaught flips one byte of one read result and expects
// the content check to fail the run.
func TestCorruptedReadIsCaught(t *testing.T) {
	var flipped atomic.Bool // both load goroutines call the hook
	o := options{workload: "ingest", seed: 3, seconds: 1, setupReps: 1, recoveryReps: 1,
		mutateRead: func(p []byte) {
			if len(p) > 0 && flipped.CompareAndSwap(false, true) {
				p[len(p)/2] ^= 0x40
			}
		}}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !flipped.Load() {
		t.Fatal("no read happened")
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted read not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestBudgetAddsUp checks that a budget's parts plus its remainder equal
// its total, including for overlapping and overhanging child spans.
func TestBudgetAddsUp(t *testing.T) {
	spans := []span{
		{name: "client.call", trace: 1, start: 1000, dur: 10000},
		{name: "serve.op.write", trace: 1, start: 2000, dur: 7000},
		{name: "serve.queue_wait", trace: 1, start: 2000, dur: 1000},
		{name: "serve.exec", trace: 1, start: 3000, dur: 4000},
		{name: "nova.write", trace: 1, start: 3500, dur: 3000},
		{name: "nova.write.fill", trace: 1, start: 4000, dur: 1500},
		{name: "nova.write.alloc", trace: 1, start: 3900, dur: 300}, // overlaps fill's start
		{name: "serve.reply", trace: 1, start: 7000, dur: 2500},     // overhangs serve.op.write
		{name: "serve.exec", trace: 1, start: 10500, dur: 3000},     // overhangs the root: excluded
		{name: "dedup.process", trace: 1, start: 6000, dur: 500},    // async: excluded
		{name: "client.call", trace: 2, start: 20000, dur: 5000},
		{name: "serve.exec", trace: 2, start: 21000, dur: 2000},
		{name: "client.call", trace: 3, start: 100, dur: 5000}, // before the cutoff
	}
	b := buildBudget("write", func(s span) bool { return s.name == "client.call" }, spans, 500, "rest")
	if b.Samples != 2 {
		t.Fatalf("samples %d, want 2", b.Samples)
	}
	if math.Abs(b.sum()-b.TotalUs) > 1e-9 {
		t.Fatalf("parts + remainder = %v, total %v", b.sum(), b.TotalUs)
	}
	if b.TotalUs != 7.5 {
		t.Fatalf("total %v µs, want 7.5", b.TotalUs)
	}
	self := map[string]float64{}
	for _, p := range b.Parts {
		self[p.Name] = p.SelfUs
	}
	// nova.write.fill: 1500 ns in trace 1 less the 200 ns the shorter
	// alloc span covers, over two roots.
	if self["nova.write.fill"] != 0.65 {
		t.Errorf("fill self %v µs, want 0.65", self["nova.write.fill"])
	}
	if _, ok := self["dedup.process"]; ok {
		t.Error("asynchronous dedup span charged to the request")
	}
	// Root self time: trace 1 has 1000 ns before the server span and
	// 1500 ns after the reply, trace 2 has 3000 ns outside serve.exec.
	if b.RemainderUs != 2.75 {
		t.Errorf("remainder %v µs, want 2.75", b.RemainderUs)
	}
}

// TestTracedBudgetsAddUp checks the same property on real traced runs,
// over the wire and in process.
func TestTracedBudgetsAddUp(t *testing.T) {
	for _, name := range []string{"serve", "ingest"} {
		spec, _ := lookupWorkload(name)
		o := options{workload: name, seed: 5, seconds: 1, trace: true}
		e, err := newEnv(spec, o.seed, o.seconds, denova.TraceFine)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runPhase(e, o, o.seconds, true)
		if err != nil {
			t.Fatal(err)
		}
		spans, cutoff := spansOf(e.fs.Tracer().Events())
		for _, w := range p.workers {
			if lt, ok := w.tgt.(*localTarget); ok {
				spans = append(spans, lt.spans...)
			}
		}
		e.fs.UnmountDirty()
		for _, b := range latencyBudgets(spec, spans, cutoff) {
			if b.Samples == 0 || len(b.Parts) == 0 {
				t.Errorf("%s %s: %d complete span trees, %d parts", name, b.Op, b.Samples, len(b.Parts))
			}
			if math.Abs(b.sum()-b.TotalUs) > 1e-6*b.TotalUs {
				t.Errorf("%s %s: parts + remainder = %v, total %v", name, b.Op, b.sum(), b.TotalUs)
			}
		}
	}
}

// sum returns a budget's parts plus its remainder.
func (b budget) sum() float64 {
	s := b.RemainderUs
	for _, p := range b.Parts {
		s += p.SelfUs
	}
	return s
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	ns := make([]int64, 500)
	for i := range ns {
		ns[i] = int64(i+1) * 1000
	}
	p := percentile(ns, 0.99)
	if p.Q != 0.98 || p.N != 500 || p.Value != 490 {
		t.Fatalf("got %+v, want q=0.98 n=500 value=490", p)
	}
	if p := percentile(ns[:100], 0.5); p.Q != 0.5 || p.Value != 50 {
		t.Fatalf("p50 of 100: %+v", p)
	}
}

func TestPayloadsDependOnlyOnSeedAndVersion(t *testing.T) {
	spec, _ := lookupWorkload("ingest")
	p := spec.profile
	a, b := make([]byte, 4*4096), make([]byte, 4*4096)
	newPayloadGen(p).fill(a, 0, 3, 7)
	newPayloadGen(p).fill(b, 0, 3, 7)
	if string(a) != string(b) {
		t.Fatal("same seed and version gave different payloads")
	}
	p.Seed++
	newPayloadGen(p).fill(b, 0, 3, 7)
	if string(a) == string(b) {
		t.Fatal("different seeds gave the same payload")
	}
}
