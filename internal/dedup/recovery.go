package dedup

import (
	"time"

	"denova/internal/fact"
	"denova/internal/nova"
	"denova/internal/pmem"
)

// RecoveryReport summarizes the dedup-level recovery of §V-C.
type RecoveryReport struct {
	// Resumed counts in-process write entries whose transactions were
	// completed from step ⑥ (Inconsistency Handling II).
	Resumed int
	// Requeued counts dedupe_needed entries put back on the DWQ
	// (Inconsistency Handling I and III).
	Requeued int
	// RestoredFromSnapshot is true when the DWQ came from the clean-
	// shutdown save area rather than the log scan.
	RestoredFromSnapshot bool
	// Fact carries the FACT-level repair counters.
	Fact fact.RecoverStats
	// ScrubDropped counts FACT entries invalidated because their block was
	// reclaimed by the rebuilt free list (§V-C2).
	ScrubDropped int
	// Passes is the per-phase timing/device-access breakdown of the dedup
	// recovery, in execution order. denova.Mount appends it to the nova
	// pass list so a full mount reads as one timeline.
	Passes []nova.RecoveryPass
}

// timedPhase runs fn and appends its wall-clock and device-counter cost to
// rep.Passes.
func timedPhase(dev *pmem.Device, rep *RecoveryReport, name string, fn func()) {
	start := time.Now()
	before := dev.Stats()
	fn()
	rep.Passes = append(rep.Passes, nova.RecoveryPass{
		Name: name,
		Wall: time.Since(start),
		Pmem: dev.Stats().Sub(before),
	})
}

// Recover brings the dedup state machine up after a mount, in the order
// the paper's failure analysis requires:
//
//  1. FACT structural repair (chains, commit flags, free list, delete
//     pointers).
//  2. Resume in-process entries from step ⑥: transfer their pending UCs to
//     RFCs and advance their flags to dedupe_complete (Handling II). The
//     per-entry UC>0 guard makes re-application after a crash-during-
//     recovery idempotent.
//  3. Discard all remaining UCs — they belong to transactions that never
//     reached the log commit (Handling II, second half).
//  4. Scrub FACT entries whose blocks the recovered free list reclaimed
//     (§V-C2).
//  5. Rebuild the DWQ: from the clean-shutdown snapshot when one is valid,
//     otherwise from the dedupe_needed entries found by the log scan
//     (Handling I/III).
//
// A structurally corrupt FACT stops recovery after step 1 with an error
// wrapping layout.ErrCorrupt.
func Recover(e *Engine, scan *nova.ScanResult) (RecoveryReport, error) {
	var rep RecoveryReport
	fs, table := e.fs, e.table

	// (1) Structure.
	var err error
	timedPhase(fs.Dev, &rep, "fact-structure", func() {
		rep.Fact, err = table.RecoverStructure()
	})
	if err != nil {
		return rep, err
	}

	// (2) Resume in-process transactions.
	timedPhase(fs.Dev, &rep, "dedup-resume", func() {
		for _, ref := range scan.InProcess {
			in, ok := fs.Inode(ref.Ino)
			if !ok {
				continue // the file was an orphan; its blocks are gone
			}
			func() {
				in.Lock()
				defer in.Unlock()
				we, err := nova.ReadWriteEntry(fs.Dev, ref.Off)
				if err == nil && we.Ino == ref.Ino && we.DedupeFlag == nova.FlagInProcess {
					// Step ⑥ resumed: commit the pending count of each data page
					// this entry references. For a target entry, unique pages hold
					// their own FACT entries and duplicate pages' original blocks
					// have none (their canonical counterparts are committed through
					// the appended one-page entries, which are in this list too).
					for i := uint64(0); i < uint64(we.NumPages); i++ {
						table.CommitTxnByBlock(we.Block + i)
					}
					nova.SetDedupeFlag(fs.Dev, ref.Off, nova.FlagComplete)
					rep.Resumed++
				}
			}()
		}
	})

	// (3) Discard the counts of transactions that never committed.
	timedPhase(fs.Dev, &rep, "zero-uc", func() {
		zs := table.ZeroAllUC()
		rep.Fact.UCsDiscarded = zs.UCsDiscarded
		rep.Fact.EntriesDropped += zs.EntriesDropped
	})

	// (4) Scrub against the recovered block usage. Blocks dropped here are
	// already free in the rebuilt allocator (they were absent from the
	// usage bitmap), so no free-list action is needed.
	timedPhase(fs.Dev, &rep, "fact-scrub", func() {
		ss, _ := table.Scrub(func(b uint64) bool {
			idx := int64(b) - int64(fs.Geo.DataStartBlock)
			return idx >= 0 && idx < int64(len(scan.UsedBlocks)) && scan.UsedBlocks[idx]
		})
		rep.ScrubDropped = ss.EntriesDropped
	})

	// (5) Rebuild the queue.
	timedPhase(fs.Dev, &rep, "dwq-rebuild", func() {
		if scan.Clean && !scan.DWQOverflow {
			if n, err := e.dwq.Restore(fs.Dev, fs.Geo.DWQSaveOff, fs.Geo.DWQSavePages); err == nil {
				rep.RestoredFromSnapshot = true
				rep.Requeued = n
			}
		}
		if !rep.RestoredFromSnapshot {
			for _, ref := range scan.NeedDedup {
				e.dwq.Enqueue(Node{Ino: ref.Ino, EntryOff: ref.Off})
				rep.Requeued++
			}
		}
		// The snapshot is consumed either way; never restore it twice.
		Invalidate(fs.Dev, fs.Geo.DWQSaveOff)
		nova.SetDWQOverflowFlag(fs.Dev, false)
	})
	return rep, nil
}

// SaveDWQ persists the queue at clean unmount and raises the overflow flag
// if the save area could not hold everything.
func SaveDWQ(e *Engine) (saved int, overflow bool) {
	saved, overflow = e.dwq.Save(e.fs.Dev, e.fs.Geo.DWQSaveOff, e.fs.Geo.DWQSavePages)
	nova.SetDWQOverflowFlag(e.fs.Dev, overflow)
	return saved, overflow
}
