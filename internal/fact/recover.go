package fact

import (
	"fmt"
	"sync"

	"denova/internal/layout"
	"denova/internal/pmem"
)

// Mount-time recovery of the FACT (§V-C). The caller orchestrates the
// sequence, because the dedup engine's in-process resume must land between
// chain repair and UC discarding:
//
//	t := fact.Attach(dev, cfg)
//	t.RecoverStructure()        // chains, free list, delete pointers; ErrCorrupt stops the mount
//	<dedup engine resumes in-process entries: CommitTxnByBlock(...)>
//	t.ZeroAllUC()               // discard counts of failed transactions
//	t.Scrub(inUse)              // drop entries whose block was reclaimed
//
// On a clean mount only Attach+RecoverStructure run (they also rebuild the
// DRAM IAA free list, which is never persisted).
//
// All three passes shard their index sweeps across Table.RecoveryWorkers
// goroutines. Sharding is safe and deterministic because the structure
// decomposes: every IAA entry belongs to exactly one DAA chain, so chain
// walks from distinct DAA heads touch disjoint entries; per-entry repairs
// (orphan clears, UC discards) touch only their own slot; and mutations
// that cross entries (chain unlinks via dropEntry) are collected during
// the parallel read phase and applied single-threaded in ascending index
// order, which yields the same persistent image as the sequential sweep
// (unlinks of distinct entries commute, and removing an entry never moves
// another: a removed DAA head stays in place as an unoccupied anchor).
//
// Every index sweep reads the region a page (64 entries) per device access
// through sweep; only chain walks, which follow pointers, read entry by
// entry. Shard boundaries fall on page boundaries so no page is read twice.

// Attach opens an existing FACT region without zeroing it. The IAA free
// list starts empty; RecoverStructure rebuilds it.
func Attach(dev *pmem.Device, cfg Config) *Table {
	t := New(dev, cfg)
	t.iaaFree = t.iaaFree[:0]
	return t
}

// RecoverStats summarizes what recovery repaired.
type RecoverStats struct {
	ReordersResumed int // chains with a raised commit flag
	PrevsFixed      int // prev pointers rebuilt from next pointers
	OrphansCleared  int // unreachable IAA slots holding half-inserted entries
	GhostsUnlinked  int // chain members with zero counts (half-removed)
	DelPtrsFixed    int // delete pointers reinstalled or cleared
	UCsDiscarded    int // update counts zeroed by ZeroAllUC
	EntriesDropped  int // entries removed because RFC became 0 or block freed
}

// add accumulates o into s (per-worker RecoverStats reduction).
func (s *RecoverStats) add(o RecoverStats) {
	s.ReordersResumed += o.ReordersResumed
	s.PrevsFixed += o.PrevsFixed
	s.OrphansCleared += o.OrphansCleared
	s.GhostsUnlinked += o.GhostsUnlinked
	s.DelPtrsFixed += o.DelPtrsFixed
	s.UCsDiscarded += o.UCsDiscarded
	s.EntriesDropped += o.EntriesDropped
}

// recoveryWorkers resolves the pool size for the recovery sweeps.
func (t *Table) recoveryWorkers() int {
	w := t.RecoveryWorkers
	if w <= 0 {
		w = 1
	}
	return w
}

// shardRanges splits [lo, hi) into at most w contiguous ascending ranges
// whose inner boundaries fall on sweep-page boundaries.
func shardRanges(lo, hi int64, w int) [][2]int64 {
	if hi <= lo {
		return nil
	}
	if int64(w) > hi-lo {
		w = int(hi - lo)
	}
	out := make([][2]int64, 0, w)
	n := hi - lo
	s := lo
	for i := 1; i <= w; i++ {
		e := hi
		if i < w {
			cut := lo + n*int64(i)/int64(w)
			e = min(hi, (cut+entriesPerPage-1)/entriesPerPage*entriesPerPage)
		}
		if e > s {
			out = append(out, [2]int64{s, e})
			s = e
		}
	}
	return out
}

const (
	// entriesPerPage is how many entries one sweep read covers.
	entriesPerPage = pmem.PageSize / EntrySize
	wordsPerEntry  = EntrySize / 8
)

// entryWords is one entry as a sweep decodes it: the eight 8-byte words of
// its cache line.
type entryWords [wordsPerEntry]uint64

func (e *entryWords) counts() (rfc, uc uint32) {
	w := e[feCounts/8]
	return uint32(w), uint32(w >> 32)
}
func (e *entryWords) occupied() bool { return e[feCounts/8] != 0 }
func (e *entryWords) block() uint64  { return e[feBlock/8] }
func (e *entryWords) prev() uint64   { return e[fePrev/8] }
func (e *entryWords) next() uint64   { return e[feNext/8] }
func (e *entryWords) delPtr() uint64 { return e[feDelPtr/8] }

// loadEntry reads the whole entry at idx in one device access.
func (t *Table) loadEntry(idx uint64, e *entryWords) {
	t.dev.LoadWords(t.entryOff(idx), e[:])
}

// sweep calls fn for every entry in [lo, hi) in ascending order, reading
// the region one page of entries per device access. Each word is read
// atomically, but fn sees an entry as it was when its page was read, so fn
// may only mutate the entry it is visiting; mutations that cross entries
// must be collected and applied after the sweep.
func (t *Table) sweep(lo, hi int64, fn func(idx uint64, e *entryWords)) {
	var page [entriesPerPage * wordsPerEntry]uint64
	for i := lo; i < hi; {
		end := min(hi, (i/entriesPerPage+1)*entriesPerPage)
		words := page[:(end-i)*int64(wordsPerEntry)]
		t.dev.LoadWords(t.entryOff(uint64(i)), words)
		for k := 0; i < end; i, k = i+1, k+wordsPerEntry {
			fn(uint64(i), (*entryWords)(words[k:]))
		}
	}
}

// shardedSweep sweeps [lo, hi) with one goroutine per shardRanges range
// and returns when all are done. fn receives the shard's position, in
// ascending range order, so callers can keep per-shard results and merge
// them in index order.
func (t *Table) shardedSweep(lo, hi int64, fn func(shard int, idx uint64, e *entryWords)) {
	var wg sync.WaitGroup
	for w, r := range shardRanges(lo, hi, t.recoveryWorkers()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.sweep(r[0], r[1], func(idx uint64, e *entryWords) { fn(w, idx, e) })
		}()
	}
	wg.Wait()
}

// RecoverStructure walks every chain, completing any interrupted reorder
// (commit flag protocol), rebuilding prev pointers, unlinking half-removed
// entries, validating delete pointers, and rebuilding the IAA free list.
// It must run before the table serves lookups. The DAA chain walk and the
// IAA sweep are partitioned by index range across RecoveryWorkers. An
// occupied entry naming a block outside the data region fails recovery
// with an error wrapping layout.ErrCorrupt.
func (t *Table) RecoverStructure() (RecoverStats, error) {
	var rs RecoverStats
	workers := t.recoveryWorkers()

	// Phase 1: per-chain repair, sharded by DAA range. Chains from
	// distinct heads are disjoint, so workers never touch the same entry.
	type chainShard struct {
		rs        RecoverStats
		reachable map[uint64]bool
	}
	chainShards := make([]chainShard, workers)
	for i := range chainShards {
		chainShards[i].reachable = make(map[uint64]bool)
	}
	t.shardedSweep(0, t.daa, func(w int, p uint64, head *entryWords) {
		// A head with no reorder flag and no overflow entries has nothing
		// to repair.
		if head.prev() != None || head.next() != None {
			t.recoverChain(p, head, chainShards[w].reachable, &chainShards[w].rs)
		}
	})
	reachable := make(map[uint64]bool)
	for i := range chainShards {
		rs.add(chainShards[i].rs)
		for idx := range chainShards[i].reachable {
			reachable[idx] = true
		}
	}

	// Phase 2: IAA slots, sharded by range. Unreachable ones go to the
	// free list; occupied orphans (crash between the counts persist and
	// the chain link) are cleared. Each repair touches only its own slot.
	// Per-worker free lists concatenate in range order, reproducing the
	// sequential ascending rebuild exactly.
	type iaaShard struct {
		cleared int
		free    []uint64
	}
	iaaShards := make([]iaaShard, workers)
	t.shardedSweep(t.daa, t.total, func(w int, idx uint64, e *entryWords) {
		if reachable[idx] {
			return
		}
		sh := &iaaShards[w]
		if e.occupied() {
			t.dev.PersistStore64(t.entryOff(idx)+feCounts, 0)
			t.clearSlot(idx)
			sh.cleared++
		}
		sh.free = append(sh.free, idx)
	})
	t.iamu.Lock()
	t.iaaFree = t.iaaFree[:0]
	for i := range iaaShards {
		rs.OrphansCleared += iaaShards[i].cleared
		t.iaaFree = append(t.iaaFree, iaaShards[i].free...)
	}
	t.iamu.Unlock()

	fixed, err := t.fixDeletePointers()
	rs.DelPtrsFixed = fixed
	return rs, err
}

// recoverChain repairs the chain anchored at DAA slot p, whose entry the
// caller has already read: it resumes an interrupted reorder, rebuilds
// prev pointers, and unlinks ghost entries, recording every live chain
// member in reachable. Each member costs one device read.
func (t *Table) recoverChain(p uint64, head *entryWords, reachable map[uint64]bool, rs *RecoverStats) {
	cur := head.next()
	if head.prev() != None {
		// Raised commit flag: finish the reorder, which rewrites the links.
		if t.recoverReorder(p) {
			rs.ReordersResumed++
		}
		cur = t.next(p)
	}
	// Walk the chain, fixing prevs and unlinking ghosts. Cycle guard:
	// a corrupted region (e.g. never initialized) must not hang
	// recovery — the chain is truncated at the first repeated entry, or
	// at the first pointer past the table.
	prev := p
	visited := map[uint64]bool{}
	var e entryWords
	for cur != None {
		if cur >= uint64(t.total) || visited[cur] {
			t.setNext(prev, None)
			break
		}
		visited[cur] = true
		t.loadEntry(cur, &e)
		nxt := e.next()
		if !e.occupied() {
			// Half-inserted or half-removed IAA entry: unlink.
			t.setNext(prev, nxt)
			if nxt != None {
				t.setPrev(nxt, prev)
			}
			t.clearSlot(cur)
			rs.GhostsUnlinked++
			cur = nxt
			continue
		}
		if e.prev() != prev {
			t.setPrev(cur, prev)
			rs.PrevsFixed++
		}
		reachable[cur] = true
		prev = cur
		cur = nxt
	}
}

// clearSlot wipes an entry's identity (not its delete-pointer field, which
// belongs to the slot's block index).
func (t *Table) clearSlot(idx uint64) {
	off := t.entryOff(idx)
	var zero [FPSize]byte
	t.dev.Store64(off+feCounts, 0)
	t.dev.Write(off+feFP, zero[:])
	t.dev.Store64(off+feBlock, 0)
	t.dev.Store64(off+fePrev, None)
	t.dev.Store64(off+feNext, None)
	t.dev.Persist(off, EntrySize)
}

// fixDeletePointers makes the delete-pointer index exactly mirror the live
// entries: every occupied entry's block maps to it; every other slot maps
// to None. Both the entry scan and the slot sweep shard by range; the
// per-worker want-maps merge in ascending range order, so if two entries
// ever claim the same block (corrupt image) the higher index wins, exactly
// as in the sequential scan. An occupied entry whose block lies outside
// the data region is reported, lowest index first, as layout.ErrCorrupt
// before any slot is rewritten.
func (t *Table) fixDeletePointers() (int, error) {
	workers := t.recoveryWorkers()

	type wantShard struct {
		want map[uint64]uint64 // relBlock -> entry idx
		bad  []uint64          // occupied entries with an out-of-region block
	}
	wantShards := make([]wantShard, workers)
	for i := range wantShards {
		wantShards[i].want = make(map[uint64]uint64)
	}
	t.shardedSweep(0, t.total, func(w int, idx uint64, e *entryWords) {
		if !e.occupied() {
			return
		}
		sh := &wantShards[w]
		if !t.inData(e.block()) {
			sh.bad = append(sh.bad, idx)
			return
		}
		sh.want[e.block()-t.dataStart] = idx
	})
	want := make(map[uint64]uint64)
	for _, sh := range wantShards {
		if len(sh.bad) > 0 {
			idx := sh.bad[0]
			return 0, fmt.Errorf("%w: FACT entry %d names block %d, outside the data region [%d, %d)",
				layout.ErrCorrupt, idx, t.block(idx), t.dataStart, t.dataStart+uint64(t.numData))
		}
		for k, v := range sh.want {
			want[k] = v
		}
	}

	fixedBy := make([]int, workers)
	t.shardedSweep(0, t.numData, func(w int, r uint64, e *entryWords) {
		wv, ok := want[r]
		if !ok {
			wv = None
		}
		if e.delPtr() != wv {
			t.dev.PersistStore64(t.entryOff(r)+feDelPtr, wv)
			fixedBy[w]++
		}
	})
	fixed := 0
	for _, n := range fixedBy {
		fixed += n
	}
	return fixed, nil
}

// ZeroAllUC discards the update counts of transactions that never resumed
// (Inconsistency Handling II: "the UC is not applied to the RFC for these
// entries, but discarded. These UCs are set to 0 at system reboot").
// Entries left with RFC==0 are removed entirely. The sweep shards by
// index range: per-entry count rewrites run in the workers (they touch
// only their own slot), while removals — which rewrite neighbours' chain
// pointers — are collected and applied afterwards in ascending index
// order, producing the same image as the sequential sweep.
func (t *Table) ZeroAllUC() RecoverStats {
	var rs RecoverStats
	workers := t.recoveryWorkers()

	type ucShard struct {
		discarded int
		drops     []uint64
	}
	shards := make([]ucShard, workers)
	t.shardedSweep(0, t.total, func(w int, idx uint64, e *entryWords) {
		rfc, uc := e.counts()
		if uc == 0 {
			return
		}
		sh := &shards[w]
		sh.discarded++
		if rfc == 0 {
			sh.drops = append(sh.drops, idx)
			return
		}
		t.dev.PersistStore64(t.entryOff(idx)+feCounts, uint64(rfc))
	})
	for i := range shards {
		rs.UCsDiscarded += shards[i].discarded
		for _, idx := range shards[i].drops {
			t.dropEntry(idx)
			rs.EntriesDropped++
		}
	}
	return rs
}

// Scrub removes every entry whose block the file system no longer uses
// (§V-C2: "DENOVA checks each FACT entry's data chunk. If the data chunk
// has been reclaimed by the free list in recovery, it decreases the RFC of
// the corresponding FACT entry, i.e., invalidates it."). It returns the
// blocks whose entries were dropped so the caller can reconcile free-space
// accounting. The candidate scan shards by index range (read-only); the
// drops apply afterwards in ascending index order.
func (t *Table) Scrub(inUse func(block uint64) bool) (RecoverStats, []uint64) {
	var rs RecoverStats
	workers := t.recoveryWorkers()

	type cand struct {
		idx, block uint64
	}
	candShards := make([][]cand, workers)
	t.shardedSweep(0, t.total, func(w int, idx uint64, e *entryWords) {
		if !e.occupied() {
			return
		}
		if _, uc := e.counts(); uc > 0 {
			// An open transaction is about to reference this block; the
			// next scrub pass will catch it if the transaction dies.
			return
		}
		if b := e.block(); !inUse(b) {
			candShards[w] = append(candShards[w], cand{idx, b})
		}
	})

	var dropped []uint64
	for _, sh := range candShards {
		for _, c := range sh {
			// Re-validate under the chain lock via dropEntry (it rechecks
			// occupancy); the block check guards against the slot having
			// been rewritten between the scan and the drop.
			if t.block(c.idx) != c.block {
				continue
			}
			t.dropEntry(c.idx)
			rs.EntriesDropped++
			dropped = append(dropped, c.block)
		}
	}
	return rs, dropped
}

// dropEntry force-removes an entry regardless of its counts, taking the
// chain lock.
func (t *Table) dropEntry(idx uint64) {
	fp := t.fp(idx)
	prefix := t.PrefixOf(fp)
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()
	if !t.occupied(idx) {
		return
	}
	block := t.block(idx)
	t.removeLocked(prefix, idx, block)
}
