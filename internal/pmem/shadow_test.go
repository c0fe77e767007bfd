package pmem

import (
	"strings"
	"testing"
)

func TestCheckpointCleanReportsDirtyLines(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.EnableShadowTracker()

	// Two stores on two distinct lines, never flushed.
	d.Store64(0, 1)
	d.Store64(CacheLineSize, 2)
	if got := d.CheckpointClean("unflushed-op"); got != 2 {
		t.Fatalf("CheckpointClean = %d, want 2", got)
	}
	if got := d.Stats().UnflushedAtCheckpoint; got != 2 {
		t.Fatalf("UnflushedAtCheckpoint = %d, want 2", got)
	}
	vs := d.ShadowViolations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1: %v", len(vs), vs)
	}
	v := vs[0]
	if v.Kind != "unflushed-at-checkpoint" || v.Label != "unflushed-op" || v.Count != 2 {
		t.Fatalf("violation = %+v", v)
	}
	if len(v.Lines) != 2 || v.Lines[0] != 0 || v.Lines[1] != 1 {
		t.Fatalf("violation lines = %v, want [0 1]", v.Lines)
	}
	if !strings.Contains(v.String(), "unflushed-at-checkpoint") {
		t.Fatalf("String() = %q", v.String())
	}

	// Flushing clears the debt: the next checkpoint is clean.
	d.Persist(0, 2*CacheLineSize)
	if got := d.CheckpointClean("after-persist"); got != 0 {
		t.Fatalf("CheckpointClean after persist = %d, want 0", got)
	}
	if len(d.ShadowViolations()) != 1 {
		t.Fatal("clean checkpoint must not record a violation")
	}
}

func TestCheckpointCleanWorksWithTrackerDisabled(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.Store64(0, 7)
	if got := d.CheckpointClean("no-tracker"); got != 1 {
		t.Fatalf("CheckpointClean = %d, want 1", got)
	}
	if got := d.Stats().UnflushedAtCheckpoint; got != 1 {
		t.Fatalf("UnflushedAtCheckpoint = %d, want 1", got)
	}
	// Counter maintained, but no violation recorded while disabled.
	if vs := d.ShadowViolations(); len(vs) != 0 {
		t.Fatalf("violations = %v, want none while disabled", vs)
	}
}

func TestShadowRedundantFlush(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.EnableShadowTracker()

	d.Store64(0, 1)
	d.Persist(0, 8) // first flush: line dirty, not redundant
	if got := d.Stats().RedundantFlushLines; got != 0 {
		t.Fatalf("RedundantFlushLines after first persist = %d, want 0", got)
	}
	d.Persist(0, 8) // same line again, now clean: redundant
	if got := d.Stats().RedundantFlushLines; got != 1 {
		t.Fatalf("RedundantFlushLines after double persist = %d, want 1", got)
	}
	found := false
	for _, v := range d.ShadowViolations() {
		if v.Kind == "redundant-flush" && v.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no redundant-flush violation recorded: %v", d.ShadowViolations())
	}
}

func TestShadowFenceWithoutFlush(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.EnableShadowTracker()

	// The first fence after enable is never blamed (grace credit).
	d.Fence()
	if got := d.Stats().FencesWithoutFlush; got != 0 {
		t.Fatalf("FencesWithoutFlush after grace fence = %d, want 0", got)
	}
	// A second fence with no intervening flush work is a violation.
	d.Fence()
	if got := d.Stats().FencesWithoutFlush; got != 1 {
		t.Fatalf("FencesWithoutFlush = %d, want 1", got)
	}
	// Flush work (via Persist or WriteNT) re-arms the fence.
	d.Store64(0, 1)
	d.Persist(0, 8) // Persist = Flush + Fence; its own fence consumes the work
	if got := d.Stats().FencesWithoutFlush; got != 1 {
		t.Fatalf("FencesWithoutFlush after persist = %d, want 1", got)
	}
	d.Fence() // back-to-back fence: violation again
	if got := d.Stats().FencesWithoutFlush; got != 2 {
		t.Fatalf("FencesWithoutFlush after trailing fence = %d, want 2", got)
	}
	// WriteNT counts as fence work too.
	d.WriteNT(0, make([]byte, CacheLineSize))
	d.Fence()
	if got := d.Stats().FencesWithoutFlush; got != 2 {
		t.Fatalf("FencesWithoutFlush after WriteNT+Fence = %d, want 2", got)
	}
}

func TestShadowDisableAndReset(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.EnableShadowTracker()
	if !d.ShadowEnabled() {
		t.Fatal("tracker should be enabled")
	}
	d.Store64(0, 1)
	d.CheckpointClean("x")
	if len(d.ShadowViolations()) != 1 {
		t.Fatal("expected one violation")
	}
	d.ResetShadow()
	if len(d.ShadowViolations()) != 0 {
		t.Fatal("ResetShadow must clear violations")
	}
	d.DisableShadowTracker()
	if d.ShadowEnabled() {
		t.Fatal("tracker should be disabled")
	}
	d.Persist(0, 8)
	d.Persist(0, 8) // would be redundant, but tracking is off
	if got := d.Stats().RedundantFlushLines; got != 0 {
		t.Fatalf("RedundantFlushLines while disabled = %d, want 0", got)
	}
}

func TestShadowStatsSubAndReset(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	d.EnableShadowTracker()
	d.Store64(0, 1)
	d.CheckpointClean("a")
	before := d.Stats()
	d.Store64(CacheLineSize, 2)
	d.CheckpointClean("b")
	delta := d.Stats().Sub(before)
	// Second checkpoint sees both dirty lines (nothing was flushed).
	if delta.UnflushedAtCheckpoint != 2 {
		t.Fatalf("delta.UnflushedAtCheckpoint = %d, want 2", delta.UnflushedAtCheckpoint)
	}
}
