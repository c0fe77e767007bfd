package denova

import (
	"reflect"
	"testing"
)

// The metric surface as exported before layers registered their own
// counters: 41 counters and 7 gauges after Mkfs in ModeImmediate with a
// running daemon. No name may disappear or change kind.
var (
	pinnedCounters = []string{
		"dedup.bytes_deduped", "dedup.enqueued", "dedup.entries_processed",
		"dedup.entries_skipped", "dedup.pages_duplicate", "dedup.pages_owned",
		"dedup.pages_scanned", "dedup.pages_stale", "dedup.pages_unique",
		"dedup.queue.dequeued", "dedup.queue.enqueued", "dedup.worker_busy_ns",
		"dedup.worker_nodes",
		"fact.commits", "fact.decrefs", "fact.dup_hits", "fact.inserts",
		"fact.lookups", "fact.removes", "fact.reorders", "fact.walk_entries",
		"nova.blocks_freed", "nova.blocks_skipped", "nova.gc_log_pages",
		"nova.gc_thorough_passes", "nova.read.bytes", "nova.reads",
		"nova.relink_pages", "nova.relink_runs", "nova.relinks",
		"nova.write.bytes", "nova.write.stage.bytes", "nova.writes",
		"pmem.fences", "pmem.flushed_lines", "pmem.nt_lines", "pmem.read_bytes",
		"pmem.read_lines", "pmem.read_ops", "pmem.sim_latency_ns",
		"pmem.written_bytes",
	}
	pinnedGauges = []string{
		"dedup.queue.len", "dedup.queue.peak", "dedup.workers",
		"nova.free_blocks", "space.logical_pages", "space.physical_pages",
		"space.savings_bp",
	}
)

// statsMetric names the metric that carries each int64 field of the layer
// Stats views, keyed "<view>.<Field>".
var statsMetric = map[string]string{
	"pmem.ReadOps":               "pmem.read_ops",
	"pmem.ReadLines":             "pmem.read_lines",
	"pmem.FlushedLines":          "pmem.flushed_lines",
	"pmem.NTLines":               "pmem.nt_lines",
	"pmem.Fences":                "pmem.fences",
	"pmem.ReadBytes":             "pmem.read_bytes",
	"pmem.WrittenBytes":          "pmem.written_bytes",
	"pmem.SimLatencyNs":          "pmem.sim_latency_ns",
	"pmem.UnflushedAtCheckpoint": "pmem.unflushed_at_checkpoint",
	"pmem.RedundantFlushLines":   "pmem.redundant_flush_lines",
	"pmem.FencesWithoutFlush":    "pmem.fences_without_flush",

	"nova.Writes":        "nova.writes",
	"nova.Reads":         "nova.reads",
	"nova.BlocksFreed":   "nova.blocks_freed",
	"nova.BlocksSkipped": "nova.blocks_skipped",
	"nova.GCLogPages":    "nova.gc_log_pages",
	"nova.GCThorough":    "nova.gc_thorough_passes",
	"nova.StagedBytes":   "nova.write.stage.bytes",
	"nova.Relinks":       "nova.relinks",
	"nova.RelinkRuns":    "nova.relink_runs",
	"nova.RelinkPages":   "nova.relink_pages",
	"nova.FreeBlocks":    "nova.free_blocks",
	"nova.TotalBlocks":   "nova.total_blocks",

	"fact.Lookups":     "fact.lookups",
	"fact.WalkEntries": "fact.walk_entries",
	"fact.DupHits":     "fact.dup_hits",
	"fact.Inserts":     "fact.inserts",
	"fact.Commits":     "fact.commits",
	"fact.DecRefs":     "fact.decrefs",
	"fact.Removes":     "fact.removes",
	"fact.Reorders":    "fact.reorders",

	"dedup.EntriesProcessed": "dedup.entries_processed",
	"dedup.EntriesSkipped":   "dedup.entries_skipped",
	"dedup.PagesScanned":     "dedup.pages_scanned",
	"dedup.PagesDuplicate":   "dedup.pages_duplicate",
	"dedup.PagesUnique":      "dedup.pages_unique",
	"dedup.PagesStale":       "dedup.pages_stale",
	"dedup.PagesOwned":       "dedup.pages_owned",
	"dedup.BytesDeduped":     "dedup.bytes_deduped",
}

// statsExempt lists Stats fields that deliberately have no metric, each
// with its reason. It is empty: every field a layer counts or derives is
// registered. A field belongs here only when a scrape cannot carry it.
var statsExempt = map[string]string{}

// checkMetricSurface asserts the pinned names are exported with their
// kind, and that at quiescence every int64 field of the pmem, nova, fact
// and dedup Stats views equals the metric that carries it.
func checkMetricSurface(t *testing.T, fs *FS) MetricsSnapshot {
	t.Helper()
	snap := fs.Metrics()
	for _, n := range pinnedCounters {
		if _, ok := snap.Counters[n]; !ok {
			t.Errorf("counter %q not exported", n)
		}
	}
	for _, n := range pinnedGauges {
		if _, ok := snap.Gauges[n]; !ok {
			t.Errorf("gauge %q not exported", n)
		}
	}
	st := fs.Stats()
	views := []struct {
		name string
		v    any
	}{{"pmem", st.Device}, {"nova", st.FS}, {"fact", st.Fact}, {"dedup", st.Dedup}}
	for _, view := range views {
		rv := reflect.ValueOf(view.v)
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Type().Field(i)
			if f.Type.Kind() != reflect.Int64 {
				continue
			}
			key := view.name + "." + f.Name
			if _, ok := statsExempt[key]; ok {
				continue
			}
			name, ok := statsMetric[key]
			if !ok {
				t.Errorf("Stats field %s has no metric and no exemption", key)
				continue
			}
			got, isCounter := snap.Counters[name]
			if !isCounter {
				got, ok = snap.Gauges[name]
				if !ok {
					t.Errorf("%s: metric %q not exported", key, name)
					continue
				}
			}
			if want := rv.Field(i).Int(); got != want {
				t.Errorf("%s = %d, metric %q = %d", key, want, name, got)
			}
		}
	}
	return snap
}

// TestMetricSurfacePinned checks the exported metric surface in the two
// states a scrape meets: a live ModeImmediate file system after duplicate
// writes and Sync, and the file system a dirty Mount recovers.
func TestMetricSurfacePinned(t *testing.T) {
	dev, fs := mkFS(t, Config{Mode: ModeImmediate, Workers: 2})
	writeAll(t, fs, "a", npages(1, 2, 3, 1))
	writeAll(t, fs, "b", npages(1, 2, 3, 4))
	fs.Sync()
	snap := checkMetricSurface(t, fs)
	if snap.Counters["dedup.pages_duplicate"] == 0 || snap.Counters["fact.dup_hits"] == 0 {
		t.Error("duplicate writes left the dedup counters at zero")
	}
	fs.UnmountDirty()

	fs2, info, err := Mount(dev, Config{Mode: ModeImmediate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()
	if info.Clean {
		t.Fatal("dirty unmount mounted clean")
	}
	fs2.Sync()
	snap = checkMetricSurface(t, fs2)
	recovery := []string{"recovery.total_wall_ns"}
	for _, p := range info.Passes {
		recovery = append(recovery, "recovery.pass."+p.Name+".wall_ns", "recovery.pass."+p.Name+".persisted_lines")
	}
	for _, n := range recovery {
		if _, ok := snap.Counters[n]; !ok {
			t.Errorf("counter %q not exported after Mount", n)
		}
	}
}
