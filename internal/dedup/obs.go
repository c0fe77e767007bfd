package dedup

import (
	"time"

	"denova/internal/obs"
)

// Observer carries the dedup layer's pre-resolved metrics. The daemon runs
// in the background, off the foreground write path, so the per-stage
// histograms are recorded whenever an observer is installed; per-stage
// trace events are emitted only at the fine level (op-level events always).
type Observer struct {
	Tracer *obs.Tracer
	Fine   bool

	Process     *obs.Histogram // dedup.process: one DWQ node end to end
	Revalidate  *obs.Histogram // dedup.stage.revalidate: node-vs-log validation
	Fingerprint *obs.Histogram // dedup.stage.fingerprint: read+hash+BeginTxn loop
	FactTxn     *obs.Histogram // dedup.stage.fact_txn: remap appends + tail commit + UC→RFC batch
	Remap       *obs.Histogram // dedup.stage.remap: radix remap + flag advance
	Batch       *obs.Histogram // dedup.batch: one worker batch
	QueueWait   *obs.Histogram // dedup.queue_wait: DWQ residence time
	Scrub       *obs.Histogram // dedup.scrub
}

// NewObserver resolves the dedup metric set from reg. tracer may be nil.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer, fine bool) *Observer {
	return &Observer{
		Tracer:      tracer,
		Fine:        fine,
		Process:     reg.Histogram("dedup.process"),
		Revalidate:  reg.Histogram("dedup.stage.revalidate"),
		Fingerprint: reg.Histogram("dedup.stage.fingerprint"),
		FactTxn:     reg.Histogram("dedup.stage.fact_txn"),
		Remap:       reg.Histogram("dedup.stage.remap"),
		Batch:       reg.Histogram("dedup.batch"),
		QueueWait:   reg.Histogram("dedup.queue_wait"),
		Scrub:       reg.Histogram("dedup.scrub"),
	}
}

// counters are the engine's activity counters, one per Stats field plus
// the write-hook enqueues. They are counted whether or not an Observer is
// installed and are the only copy of each number.
type counters struct {
	EntriesProcessed obs.Counter `metric:"dedup.entries_processed"`
	EntriesSkipped   obs.Counter `metric:"dedup.entries_skipped"`
	PagesScanned     obs.Counter `metric:"dedup.pages_scanned"`
	PagesDuplicate   obs.Counter `metric:"dedup.pages_duplicate"`
	PagesUnique      obs.Counter `metric:"dedup.pages_unique"`
	PagesStale       obs.Counter `metric:"dedup.pages_stale"`
	PagesOwned       obs.Counter `metric:"dedup.pages_owned"`
	BytesDeduped     obs.Counter `metric:"dedup.bytes_deduped"`
	Enqueued         obs.Counter `metric:"dedup.enqueued"`
}

// RegisterMetrics registers the engine counters and the DWQ's under their
// dedup.* names, with the queue's depth and high-water mark as computed
// gauges.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	q := e.dwq
	r.RegisterFields(&e.ctr)
	r.RegisterFields(&q.ctr)
	r.GaugeFunc("dedup.queue.len", func() int64 { return int64(q.Len()) })
	r.GaugeFunc("dedup.queue.peak", func() int64 { return int64(q.Peak()) })
}

// RegisterMetrics registers the worker pool's size and its summed node and
// busy-time tallies as computed metrics.
func (d *Daemon) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("dedup.workers", func() int64 { return int64(d.Workers()) })
	r.CounterFunc("dedup.worker_nodes", func() int64 { return d.total().Nodes })
	r.CounterFunc("dedup.worker_busy_ns", func() int64 { return d.total().BusyNs })
}

// total sums the per-worker node and busy-time tallies.
func (d *Daemon) total() (t WorkerStat) {
	for _, w := range d.WorkerStats() {
		t.Nodes += w.Nodes
		t.BusyNs += w.BusyNs
	}
	return t
}

// SetObserver installs (or removes, with nil) the metrics observer on the
// engine and rewires the DWQ linger hook so the queue-wait histogram and
// any user hook (SetLingerHook) both observe every dequeue.
func (e *Engine) SetObserver(o *Observer) {
	e.obs = o
	e.rewireLinger()
}

// SetLingerHook installs the user-facing queue-residence observer (the
// harness linger CDF), composing with the observability histogram rather
// than displacing it. Set before writes begin.
func (e *Engine) SetLingerHook(h func(d time.Duration)) {
	e.userLinger = h
	e.rewireLinger()
}

func (e *Engine) rewireLinger() {
	o, user := e.obs, e.userLinger
	if o == nil {
		e.dwq.LingerHook = user
		return
	}
	e.dwq.LingerHook = func(d time.Duration) {
		o.QueueWait.Observe(d)
		if user != nil {
			user(d)
		}
	}
}
