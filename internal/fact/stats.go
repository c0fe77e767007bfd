package fact

import (
	"fmt"
	"sync/atomic"
)

// Stats aggregates FACT activity counters.
type Stats struct {
	// Lookups counts BeginTxn calls.
	Lookups int64
	// WalkEntries counts chain entries inspected across all lookups; the
	// ratio WalkEntries/Lookups is the average chain walk length the
	// reordering policy minimizes (§IV-E).
	WalkEntries int64
	// DupHits counts lookups that found an existing fingerprint.
	DupHits int64
	// Inserts counts new entries created.
	Inserts int64
	// Commits counts UC→RFC transfers.
	Commits int64
	// DecRefs counts reference-count decrements.
	DecRefs int64
	// Removes counts entries deleted.
	Removes int64
	// Reorders counts IAA chain reorderings performed.
	Reorders int64
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats {
	return Stats{
		Lookups:     atomic.LoadInt64(&t.stats.Lookups),
		WalkEntries: atomic.LoadInt64(&t.stats.WalkEntries),
		DupHits:     atomic.LoadInt64(&t.stats.DupHits),
		Inserts:     atomic.LoadInt64(&t.stats.Inserts),
		Commits:     atomic.LoadInt64(&t.stats.Commits),
		DecRefs:     atomic.LoadInt64(&t.stats.DecRefs),
		Removes:     atomic.LoadInt64(&t.stats.Removes),
		Reorders:    atomic.LoadInt64(&t.stats.Reorders),
	}
}

// ResetStats zeroes the counters.
func (t *Table) ResetStats() {
	atomic.StoreInt64(&t.stats.Lookups, 0)
	atomic.StoreInt64(&t.stats.WalkEntries, 0)
	atomic.StoreInt64(&t.stats.DupHits, 0)
	atomic.StoreInt64(&t.stats.Inserts, 0)
	atomic.StoreInt64(&t.stats.Commits, 0)
	atomic.StoreInt64(&t.stats.DecRefs, 0)
	atomic.StoreInt64(&t.stats.Removes, 0)
	atomic.StoreInt64(&t.stats.Reorders, 0)
}

// AvgWalk returns the mean lookup chain walk length.
func (s Stats) AvgWalk() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.WalkEntries) / float64(s.Lookups)
}

// LiveEntries counts occupied entries by scanning the table (O(entries);
// intended for tests and reports, not hot paths).
func (t *Table) LiveEntries() int64 {
	var n int64
	t.sweep(0, t.total, func(_ uint64, e *entryWords) {
		if e.occupied() {
			n++
		}
	})
	return n
}

// CheckInvariants validates the table's structural invariants and returns
// an error describing the first violation. Used heavily by crash tests:
//
//  1. Every chain is a consistent doubly linked list of distinct entries,
//     all sharing the chain's fingerprint prefix.
//  2. No entry appears in two chains.
//  3. Every occupied entry's block has a delete pointer naming the entry,
//     and every delete pointer names an occupied entry owning that block.
//  4. No commit flag is raised (after recovery).
func (t *Table) CheckInvariants() error {
	seen := make(map[uint64]uint64) // entry idx -> owning prefix
	for p := uint64(0); int64(p) < t.daa; p++ {
		if flag := t.prev(p); flag != None {
			return fmt.Errorf("fact: chain %d has raised commit flag %d", p, flag)
		}
		prev := p
		for cur := t.next(p); cur != None; cur = t.next(cur) {
			if int64(cur) >= t.total {
				return fmt.Errorf("fact: chain %d links to out-of-range entry %d", p, cur)
			}
			if owner, dup := seen[cur]; dup {
				return fmt.Errorf("fact: entry %d in chains %d and %d", cur, owner, p)
			}
			seen[cur] = p
			if t.prev(cur) != prev {
				return fmt.Errorf("fact: entry %d prev=%d, want %d", cur, t.prev(cur), prev)
			}
			if t.occupied(cur) {
				if got := t.PrefixOf(t.fp(cur)); got != p {
					return fmt.Errorf("fact: entry %d prefix %d in chain %d", cur, got, p)
				}
			}
			prev = cur
		}
	}
	for i := int64(0); i < t.total; i++ {
		idx := uint64(i)
		if !t.occupied(idx) {
			continue
		}
		if int64(idx) >= t.daa {
			if _, ok := seen[idx]; !ok {
				return fmt.Errorf("fact: occupied IAA entry %d unreachable", idx)
			}
		} else if got := t.PrefixOf(t.fp(idx)); got != idx {
			return fmt.Errorf("fact: DAA entry %d holds prefix %d", idx, got)
		}
		b := t.block(idx)
		ptr, ok := t.DeletePtr(b)
		if !ok || ptr != idx {
			return fmt.Errorf("fact: entry %d block %d delete pointer is %d/%v", idx, b, ptr, ok)
		}
	}
	for r := int64(0); r < t.numData; r++ {
		ptr := t.dev.Load64(t.entryOff(uint64(r)) + feDelPtr)
		if ptr == None {
			continue
		}
		if int64(ptr) >= t.total {
			return fmt.Errorf("fact: delete pointer of block slot %d out of range: %d", r, ptr)
		}
		if !t.occupied(ptr) || t.relBlock(t.block(ptr)) != uint64(r) {
			return fmt.Errorf("fact: stale delete pointer at slot %d -> %d", r, ptr)
		}
	}
	return nil
}
