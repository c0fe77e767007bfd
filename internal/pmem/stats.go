package pmem

import (
	"fmt"
	"sync/atomic"
)

// Stats aggregates device access counters. All fields are maintained with
// atomic adds regardless of the latency profile, so access counts are
// available even in zero-latency unit tests.
type Stats struct {
	// ReadOps counts media read accesses: one per Read, Load64 or
	// LoadWords call, whatever its length.
	ReadOps int64
	// ReadLines counts 64 B cache lines read from media.
	ReadLines int64
	// FlushedLines counts lines persisted by Flush.
	FlushedLines int64
	// NTLines counts lines persisted by non-temporal stores.
	NTLines int64
	// Fences counts Fence calls.
	Fences int64
	// ReadBytes and WrittenBytes count payload bytes moved.
	ReadBytes    int64
	WrittenBytes int64
	// SimLatencyNs is the total injected media latency in nanoseconds.
	SimLatencyNs int64

	// Shadow-tracker counters (see shadow.go). UnflushedAtCheckpoint counts
	// dirty lines found by CheckpointClean (maintained even with the tracker
	// off); the other two are only advanced while the tracker is enabled.
	UnflushedAtCheckpoint int64
	RedundantFlushLines   int64
	FencesWithoutFlush    int64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		ReadOps:      atomic.LoadInt64(&d.stats.ReadOps),
		ReadLines:    atomic.LoadInt64(&d.stats.ReadLines),
		FlushedLines: atomic.LoadInt64(&d.stats.FlushedLines),
		NTLines:      atomic.LoadInt64(&d.stats.NTLines),
		Fences:       atomic.LoadInt64(&d.stats.Fences),
		ReadBytes:    atomic.LoadInt64(&d.stats.ReadBytes),
		WrittenBytes: atomic.LoadInt64(&d.stats.WrittenBytes),
		SimLatencyNs: atomic.LoadInt64(&d.stats.SimLatencyNs),

		UnflushedAtCheckpoint: atomic.LoadInt64(&d.stats.UnflushedAtCheckpoint),
		RedundantFlushLines:   atomic.LoadInt64(&d.stats.RedundantFlushLines),
		FencesWithoutFlush:    atomic.LoadInt64(&d.stats.FencesWithoutFlush),
	}
}

// ResetStats zeroes all counters.
func (d *Device) ResetStats() {
	atomic.StoreInt64(&d.stats.ReadOps, 0)
	atomic.StoreInt64(&d.stats.ReadLines, 0)
	atomic.StoreInt64(&d.stats.FlushedLines, 0)
	atomic.StoreInt64(&d.stats.NTLines, 0)
	atomic.StoreInt64(&d.stats.Fences, 0)
	atomic.StoreInt64(&d.stats.ReadBytes, 0)
	atomic.StoreInt64(&d.stats.WrittenBytes, 0)
	atomic.StoreInt64(&d.stats.SimLatencyNs, 0)
	atomic.StoreInt64(&d.stats.UnflushedAtCheckpoint, 0)
	atomic.StoreInt64(&d.stats.RedundantFlushLines, 0)
	atomic.StoreInt64(&d.stats.FencesWithoutFlush, 0)
}

// Sub returns s minus t, field-wise. Useful for measuring a phase.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		ReadOps:      s.ReadOps - t.ReadOps,
		ReadLines:    s.ReadLines - t.ReadLines,
		FlushedLines: s.FlushedLines - t.FlushedLines,
		NTLines:      s.NTLines - t.NTLines,
		Fences:       s.Fences - t.Fences,
		ReadBytes:    s.ReadBytes - t.ReadBytes,
		WrittenBytes: s.WrittenBytes - t.WrittenBytes,
		SimLatencyNs: s.SimLatencyNs - t.SimLatencyNs,

		UnflushedAtCheckpoint: s.UnflushedAtCheckpoint - t.UnflushedAtCheckpoint,
		RedundantFlushLines:   s.RedundantFlushLines - t.RedundantFlushLines,
		FencesWithoutFlush:    s.FencesWithoutFlush - t.FencesWithoutFlush,
	}
}

// PersistedLines is the total number of lines made durable.
func (s Stats) PersistedLines() int64 { return s.FlushedLines + s.NTLines }

// String renders the counters on one line.
func (s Stats) String() string {
	return fmt.Sprintf("readOps=%d readLines=%d flushLines=%d ntLines=%d fences=%d readB=%d writeB=%d simLatency=%dns",
		s.ReadOps, s.ReadLines, s.FlushedLines, s.NTLines, s.Fences, s.ReadBytes, s.WrittenBytes, s.SimLatencyNs)
}
