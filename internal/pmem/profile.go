package pmem

import (
	"runtime"
	"sync/atomic"
	"time"
)

// time_Duration converts a line count to a duration multiplier. It exists so
// arithmetic in pmem.go reads as "lines * per-line latency".
func time_Duration(n int64) time.Duration { return time.Duration(n) }

// LatencyProfile describes the media timing of a memory device. Durations
// of zero disable latency injection for that operation class; counters are
// kept regardless. The model has two components per operation class:
//
//   - a fixed access overhead charged once per device operation, modelling
//     media access latency (what Table I reports for reads), and
//   - a per-cache-line cost, modelling sustained media bandwidth.
//
// A random 64 B read on Optane then costs ~290 ns (within Table I's
// 150–350 ns) while a 4 KB sequential read costs ~2.8 µs (~1.4 GB/s),
// matching the published device behaviour far better than charging the
// access latency for every line of a bulk transfer would.
type LatencyProfile struct {
	// Name identifies the profile in reports (e.g. "optane-dcpm").
	Name string
	// ReadAccessOverhead is charged once per Read/Load64/LoadWords call.
	ReadAccessOverhead time.Duration
	// ReadPerLine is charged for each 64 B cache line read from media.
	ReadPerLine time.Duration
	// WritePerLine is charged for each 64 B line persisted (flush or
	// non-temporal store). Cached stores are free (DRAM-speed write
	// buffering, the XPController behaviour the paper leans on).
	WritePerLine time.Duration
	// FlushOverhead is a fixed cost per Flush call (instruction issue).
	FlushOverhead time.Duration
	// FenceOverhead is a fixed cost per Fence call.
	FenceOverhead time.Duration
	// BandwidthSharing, when true, scales charged latency by the number of
	// goroutines concurrently inside a charged device operation, modelling
	// saturation of the device's internal bandwidth.
	BandwidthSharing bool
}

// Zero reports whether the profile injects no latency at all.
func (p LatencyProfile) Zero() bool {
	return p.ReadAccessOverhead == 0 && p.ReadPerLine == 0 && p.WritePerLine == 0 &&
		p.FlushOverhead == 0 && p.FenceOverhead == 0
}

// Canonical profiles, calibrated against Table I of the paper and the
// published Optane characterization (Yang et al., FAST '20): Optane random
// read latency 150–350 ns, write latency 60–100 ns hidden behind the write
// buffer, sequential write bandwidth ~1.8 GB/s per DIMM.
var (
	// ProfileZero injects no latency; used by unit tests.
	ProfileZero = LatencyProfile{Name: "zero"}

	// ProfileOptane approximates an Intel Optane DC PM module.
	ProfileOptane = LatencyProfile{
		Name:               "optane-dcpm",
		ReadAccessOverhead: 250 * time.Nanosecond,
		ReadPerLine:        40 * time.Nanosecond, // ~1.5 GB/s sustained
		WritePerLine:       35 * time.Nanosecond, // ~1.8 GB/s persists
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
		BandwidthSharing:   true,
	}

	// ProfileOptaneInterleaved has Optane media timings without the
	// bandwidth-sharing governor, modelling a namespace interleaved across
	// several DIMMs where each goroutine effectively drives its own device
	// queue. Scaling benches use it to isolate the software pipeline's
	// parallelism — with sharing enabled the device itself serializes the
	// pool and a bench would measure media saturation, not the worker pool.
	ProfileOptaneInterleaved = LatencyProfile{
		Name:               "optane-interleaved",
		ReadAccessOverhead: 250 * time.Nanosecond,
		ReadPerLine:        40 * time.Nanosecond,
		WritePerLine:       35 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
	}

	// ProfileDRAM approximates DRAM (the paper's emulation substrate).
	ProfileDRAM = LatencyProfile{
		Name:               "dram",
		ReadAccessOverhead: 60 * time.Nanosecond,
		ReadPerLine:        5 * time.Nanosecond,
		WritePerLine:       5 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
	}

	// ProfilePCM approximates phase-change memory (Table I row 2).
	ProfilePCM = LatencyProfile{
		Name:               "pcm",
		ReadAccessOverhead: 175 * time.Nanosecond,
		ReadPerLine:        60 * time.Nanosecond,
		WritePerLine:       500 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
		BandwidthSharing:   true,
	}

	// ProfileSTTRAM approximates STT-RAM (Table I row 3).
	ProfileSTTRAM = LatencyProfile{
		Name:               "stt-ram",
		ReadAccessOverhead: 20 * time.Nanosecond,
		ReadPerLine:        5 * time.Nanosecond,
		WritePerLine:       30 * time.Nanosecond,
		FlushOverhead:      20 * time.Nanosecond,
		FenceOverhead:      15 * time.Nanosecond,
	}
)

// charge spins the calling goroutine for dur (optionally scaled by the
// number of concurrent accessors of the same class) to model media latency.
// Reads and writes saturate independently — Optane's read bandwidth is
// roughly 3× its write bandwidth and the two use separate internal queues,
// which is what lets DeNOVA's background daemon read and fingerprint pages
// without stealing foreground write bandwidth (§V-B1). Sub-microsecond
// waits are busy-spun; the granularity of time.Since (~20–30 ns per call)
// bounds the error, which is small relative to the 4 KB-page operations
// that dominate.
func (d *Device) chargeClass(dur time.Duration, inflight *int32) {
	if dur <= 0 {
		return
	}
	if d.prof.BandwidthSharing {
		n := atomic.AddInt32(inflight, 1)
		if n > 1 {
			dur *= time.Duration(n)
		}
		defer atomic.AddInt32(inflight, -1)
	}
	atomic.AddInt64(&d.stats.SimLatencyNs, int64(dur))
	spinWait(dur)
}

func (d *Device) chargeRead(dur time.Duration)  { d.chargeClass(dur, &d.inflightR) }
func (d *Device) chargeWrite(dur time.Duration) { d.chargeClass(dur, &d.inflightW) }

// spinWait waits for approximately dur. It deliberately avoids time.Sleep,
// whose granularity (≥ ~50 µs under most schedulers) is three orders of
// magnitude coarser than media latencies. Waits longer than a few hundred
// nanoseconds yield the processor between checks: a goroutine stalled on
// the device is not consuming a CPU, so on machines with fewer cores than
// goroutines the background daemon's compute must be able to overlap with
// foreground device waits — exactly as it would across cores on the
// paper's 40-core testbed.
func spinWait(dur time.Duration) {
	start := time.Now()
	// Short waits (metadata flushes, fences, single-line reads) busy-spin:
	// a Gosched can cost ~1 µs on virtualized single-CPU hosts, which would
	// swamp a 70 ns flush. Long waits (page transfers) yield so concurrent
	// goroutines' compute overlaps with the modelled device time.
	if dur < 2*time.Microsecond {
		for time.Since(start) < dur {
		}
		return
	}
	for time.Since(start) < dur {
		runtime.Gosched()
	}
}
