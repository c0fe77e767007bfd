package pmem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Shadow tracking: an opt-in pmemcheck-style ordering monitor.
//
// The static passes in internal/analysis prove flush/fence discipline per
// function; the shadow tracker proves it per *operation* at runtime, by
// piggybacking on the dirty-line overlay the device already maintains:
//
//   - CheckpointClean(label) declares a commit boundary — "everything this
//     operation stored is durable now". Any line still dirty is recorded as
//     an unflushed-at-checkpoint violation (it would vanish under
//     CrashDropDirty even though the commit record may already be visible).
//   - A Flush of a line with no unflushed store is counted as a redundant
//     flush: wasted media latency (Stats.RedundantFlushLines).
//   - A Fence with no flush-class work since the previous fence is counted
//     as a fence-without-flush (Stats.FencesWithoutFlush).
//
// Tracking costs one atomic load on the flush/fence paths when disabled and
// is off by default, so latency-calibrated experiments are unaffected.

// ShadowViolation is one recorded ordering violation.
type ShadowViolation struct {
	// Kind is "unflushed-at-checkpoint", "fence-without-flush", or
	// "redundant-flush".
	Kind string
	// Label is the checkpoint label (checkpoint violations only).
	Label string
	// Lines holds the offending 64 B line indexes (truncated to keep
	// violations cheap; Count is exact).
	Lines []int64
	// Count is the exact number of offending lines/events.
	Count int64
}

func (v ShadowViolation) String() string {
	if v.Label != "" {
		return fmt.Sprintf("pmem: shadow: %s at %q: %d line(s) %v", v.Kind, v.Label, v.Count, v.Lines)
	}
	return fmt.Sprintf("pmem: shadow: %s: %d event(s)", v.Kind, v.Count)
}

const maxViolationLines = 16

type shadowState struct {
	mu         sync.Mutex //denova:locks(pmem.shadow)
	violations []ShadowViolation
}

// EnableShadowTracker switches ordering tracking on. The fence-work counter
// restarts so pre-enable history cannot produce a stale fence-without-flush.
func (d *Device) EnableShadowTracker() {
	atomic.StoreInt64(&d.fenceWork, 1) // first fence after enable is never blamed
	atomic.StoreInt32(&d.shadowOn, 1)
}

// DisableShadowTracker switches tracking off; recorded violations remain
// readable.
func (d *Device) DisableShadowTracker() { atomic.StoreInt32(&d.shadowOn, 0) }

// ShadowEnabled reports whether tracking is on.
func (d *Device) ShadowEnabled() bool { return atomic.LoadInt32(&d.shadowOn) == 1 }

// ShadowViolations returns a copy of the recorded violations.
func (d *Device) ShadowViolations() []ShadowViolation {
	d.shadow.mu.Lock()
	defer d.shadow.mu.Unlock()
	return append([]ShadowViolation(nil), d.shadow.violations...)
}

// ResetShadow clears recorded violations. The shadow counters in Stats are
// monotonic like every device counter; take a Sub delta to scope them.
func (d *Device) ResetShadow() {
	d.shadow.mu.Lock()
	d.shadow.violations = nil
	d.shadow.mu.Unlock()
}

func (d *Device) recordViolation(v ShadowViolation) {
	d.shadow.mu.Lock()
	d.shadow.violations = append(d.shadow.violations, v)
	d.shadow.mu.Unlock()
}

// CheckpointClean declares a commit boundary: every store issued before it
// must already be flushed. It returns the number of cache lines that are
// still dirty (0 = the persistence discipline held). When the shadow
// tracker is enabled, a non-zero result is also recorded as a violation
// carrying the label and the first offending line indexes.
//
// The check itself only reads the dirty overlay, so it is valid (and free)
// even with the tracker disabled — tests can assert on the return value
// alone.
func (d *Device) CheckpointClean(label string) int {
	var lines []int64
	total := 0
	for i := range d.dirty {
		sh := &d.dirty[i]
		if atomic.LoadInt32(&sh.n) == 0 {
			continue
		}
		sh.mu.Lock()
		for l := range sh.old {
			if len(lines) < maxViolationLines {
				lines = append(lines, l)
			}
			total++
		}
		sh.mu.Unlock()
	}
	if total == 0 {
		return 0
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	d.ctr.UnflushedAtCheckpoint.Add(int64(total))
	if d.ShadowEnabled() {
		d.recordViolation(ShadowViolation{
			Kind:  "unflushed-at-checkpoint",
			Label: label,
			Lines: lines,
			Count: int64(total),
		})
	}
	return total
}

// shadowFlush accounts one Flush call: redundant (already-clean) lines and
// fence work. Called only when the tracker is enabled.
func (d *Device) shadowFlush(redundant int64) {
	atomic.AddInt64(&d.fenceWork, 1)
	if redundant > 0 {
		d.ctr.RedundantFlushLines.Add(redundant)
		d.recordViolation(ShadowViolation{Kind: "redundant-flush", Count: redundant})
	}
}

// shadowFence accounts one Fence call. Called only when the tracker is
// enabled.
func (d *Device) shadowFence() {
	if atomic.SwapInt64(&d.fenceWork, 0) == 0 {
		d.ctr.FencesWithoutFlush.Inc()
		d.recordViolation(ShadowViolation{Kind: "fence-without-flush", Count: 1})
	}
}
