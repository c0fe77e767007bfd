package dedup

import (
	"denova/internal/fact"
	"denova/internal/nova"
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
	err := nova.TimePass(fs.Dev, &rep.Passes, "fact-structure", func() (err error) {
		rep.Fact, err = table.RecoverStructure()
		return err
	})
	if err != nil {
		return rep, err
	}

	// (2) Resume in-process transactions.
	_ = nova.TimePass(fs.Dev, &rep.Passes, "dedup-resume", func() error {
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
		return nil
	})

	// (3) Discard the counts of transactions that never committed.
	_ = nova.TimePass(fs.Dev, &rep.Passes, "zero-uc", func() error {
		zs := table.ZeroAllUC()
		rep.Fact.UCsDiscarded = zs.UCsDiscarded
		rep.Fact.EntriesDropped += zs.EntriesDropped
		return nil
	})

	// (4) Scrub against the recovered block usage. Blocks dropped here are
	// already free in the rebuilt allocator (they were absent from the
	// usage bitmap), so no free-list action is needed.
	_ = nova.TimePass(fs.Dev, &rep.Passes, "fact-scrub", func() error {
		ss, _ := table.Scrub(func(b uint64) bool {
			idx := int64(b) - int64(fs.Geo.DataStartBlock)
			return idx >= 0 && idx < int64(len(scan.UsedBlocks)) && scan.UsedBlocks[idx]
		})
		rep.ScrubDropped = ss.EntriesDropped
		return nil
	})

	// (5) Rebuild the queue.
	_ = nova.TimePass(fs.Dev, &rep.Passes, "dwq-rebuild", func() error {
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
		return nil
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
