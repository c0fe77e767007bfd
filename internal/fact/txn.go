package fact

import (
	"fmt"
	"time"

	"denova/internal/obs"
)

// This file implements the deduplication transaction protocol of §IV-D and
// the reclamation path of §IV-C/§IV-D3.
//
// A transaction on a FACT entry is bracketed by the update count:
//
//	BeginTxn   — UC++ (atomic persist). For a unique chunk this also
//	             inserts the entry (UC=1) and its delete pointer.
//	CommitTxn  — UC--, RFC++ in ONE atomic persistent store on the shared
//	             counts word, after the file-log commit made the
//	             deduplication durable.
//
// A crash between the two leaves UC>0; recovery discards such counts
// (Inconsistency Handling II), so an uncommitted transaction can never
// corrupt the RFC.

// ErrTableFull is returned when the IAA has no free slots left.
var ErrTableFull = fmt.Errorf("fact: indirect access area exhausted")

// TxnResult describes the outcome of BeginTxn.
type TxnResult struct {
	// Idx is the FACT entry participating in the transaction.
	Idx uint64
	// Dup is true when the fingerprint was already present: the caller's
	// block is a duplicate of Canonical.
	Dup bool
	// Canonical is the block the FACT entry points at (equal to the
	// caller's block for unique chunks).
	Canonical uint64
	// WalkLen is the number of chain entries inspected (1 = direct hit in
	// the DAA), the metric the reordering policy optimizes.
	WalkLen int
}

// BeginTxn looks up fp (steps ②③ of Fig. 6). If found, it registers a new
// transaction against the existing entry (UC++). Otherwise it inserts a
// fresh entry for block with UC=1 and installs the block's delete pointer.
func (t *Table) BeginTxn(fp FP, block uint64) (TxnResult, error) {
	if o := t.obs; o != nil {
		start := time.Now()
		defer func() { o.observe(o.Begin, obs.OpFactBegin, block, time.Since(start)) }()
	}
	prefix := t.PrefixOf(fp)
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()

	t.ctr.Lookups.Inc()
	idx, tail, walk, found := t.lookupLocked(prefix, fp)
	t.ctr.WalkEntries.Add(int64(walk))
	if found {
		t.incUC(idx)
		t.ctr.DupHits.Inc()
		res := TxnResult{Idx: idx, Dup: true, Canonical: t.block(idx), WalkLen: walk}
		t.maybeMarkReorder(prefix, idx, walk)
		return res, nil
	}
	idx, err := t.insertLocked(prefix, tail, fp, block)
	if err != nil {
		return TxnResult{}, err
	}
	t.ctr.Inserts.Inc()
	return TxnResult{Idx: idx, Dup: false, Canonical: block, WalkLen: walk}, nil
}

// lookupLocked walks the chain for prefix comparing fingerprints. Returns
// the matching index, the chain tail (for appends), the number of occupied
// entries inspected, and whether a match was found. The chain lock is held.
func (t *Table) lookupLocked(prefix uint64, fp FP) (idx, tail uint64, walk int, found bool) {
	cur := prefix
	tail = prefix
	for {
		if t.occupied(cur) {
			walk++
			if t.fp(cur) == fp {
				return cur, tail, walk, true
			}
		}
		tail = cur
		nxt := t.next(cur)
		if nxt == None {
			return 0, tail, walk, false
		}
		cur = nxt
	}
}

// insertLocked places a new entry for (fp, block) with UC=1. The DAA head
// slot is claimed when unoccupied (even if a chain hangs off it); otherwise
// an IAA slot is allocated and appended at the chain tail. Persist order
// makes the counts word the commit point:
//
//  1. entry fields (fp, block, prev, next) persisted,
//  2. counts word set to UC=1, persisted  — entry now exists,
//  3. tail.next linked (IAA case), persisted,
//  4. delete pointer installed, persisted.
//
// A crash after (2) but before (3) leaves an orphan IAA slot invisible to
// lookups; recovery reclaims it. A crash before (4) leaves an entry whose
// block has no delete pointer; recovery reinstalls delete pointers from the
// entries themselves.
func (t *Table) insertLocked(prefix, tail uint64, fp FP, block uint64) (uint64, error) {
	if !t.occupied(prefix) {
		// Claim the DAA head. Keep its next linkage (an empty head may
		// still anchor an IAA chain).
		off := t.entryOff(prefix)
		t.dev.Write(off+feFP, fp[:])
		t.dev.Store64(off+feBlock, block)
		t.dev.Store64(off+fePrev, None)
		t.dev.Persist(off, EntrySize)
		t.dev.PersistStore64(off+feCounts, uint64(1)<<32) // UC=1, RFC=0
		t.setDelPtr(block, prefix)
		return prefix, nil
	}
	idx, err := t.allocIAA()
	if err != nil {
		return 0, err
	}
	off := t.entryOff(idx)
	t.dev.Write(off+feFP, fp[:])
	t.dev.Store64(off+feBlock, block)
	t.dev.Store64(off+fePrev, tail)
	t.dev.Store64(off+feNext, None)
	t.dev.Persist(off, EntrySize)
	t.dev.PersistStore64(off+feCounts, uint64(1)<<32)
	t.setNext(tail, idx) // link: entry becomes reachable
	t.setDelPtr(block, idx)
	return idx, nil
}

func (t *Table) allocIAA() (uint64, error) {
	t.iamu.Lock()
	defer t.iamu.Unlock()
	if len(t.iaaFree) == 0 {
		return 0, ErrTableFull
	}
	idx := t.iaaFree[len(t.iaaFree)-1]
	t.iaaFree = t.iaaFree[:len(t.iaaFree)-1]
	return idx, nil
}

func (t *Table) freeIAA(idx uint64) {
	t.iamu.Lock()
	t.iaaFree = append(t.iaaFree, idx)
	t.iamu.Unlock()
}

// IAAFree returns the number of free IAA slots.
func (t *Table) IAAFree() int {
	t.iamu.Lock()
	defer t.iamu.Unlock()
	return len(t.iaaFree)
}

// incUC atomically increments the update count and persists the word.
func (t *Table) incUC(idx uint64) {
	off := t.entryOff(idx) + feCounts
	t.dev.Add64(off, uint64(1)<<32)
	t.dev.Persist(off, 8)
}

// CommitTxn applies "decrease the UC and increase the RFC" as one atomic
// persistent store (step ⑥ of Fig. 6). It returns false when the entry has
// no pending update count — which recovery treats as "already applied"
// (the crash landed after this commit but before the dedupe-flag advanced).
func (t *Table) CommitTxn(idx uint64) bool {
	off := t.entryOff(idx) + feCounts
	for {
		w := t.dev.Load64(off)
		rfc, uc := uint32(w), uint32(w>>32)
		if uc == 0 {
			return false
		}
		nw := uint64(rfc+1) | uint64(uc-1)<<32
		if t.dev.CAS64(off, w, nw) {
			t.dev.Persist(off, 8)
			t.ctr.Commits.Inc()
			return true
		}
	}
}

// CommitTxnBatch commits a set of open transactions with one fence: each
// entry's counts word is transferred UC→RFC by an atomic CAS and flushed
// individually, and a single trailing fence orders the whole batch. The
// counts word is the only commit record (count-based consistency), so the
// entries need no mutual ordering — a crash exposes some flushed prefix of
// independent single-word commits, exactly as if they had been committed
// one by one. Saves one fence per entry on the worker hot path.
func (t *Table) CommitTxnBatch(idxs []uint64) int {
	if o := t.obs; o != nil {
		start := time.Now()
		defer func() { o.observe(o.CommitBatch, obs.OpFactCommitBatch, uint64(len(idxs)), time.Since(start)) }()
	}
	committed := 0
	for _, idx := range idxs {
		off := t.entryOff(idx) + feCounts
		for {
			w := t.dev.Load64(off)
			rfc, uc := uint32(w), uint32(w>>32)
			if uc == 0 {
				break
			}
			nw := uint64(rfc+1) | uint64(uc-1)<<32
			if t.dev.CAS64(off, w, nw) {
				t.dev.Flush(off, 8)
				t.ctr.Commits.Inc()
				committed++
				break
			}
		}
	}
	if committed > 0 {
		t.dev.Fence()
	}
	return committed
}

// AbortTxn drops a pending update count without transferring it to the
// RFC. Used when the engine discovers the transaction is a no-op — e.g. a
// re-processed entry whose page already owns its FACT entry (recovery
// Inconsistency Handling III re-enqueues such entries).
func (t *Table) AbortTxn(idx uint64) bool {
	off := t.entryOff(idx) + feCounts
	for {
		w := t.dev.Load64(off)
		rfc, uc := uint32(w), uint32(w>>32)
		if uc == 0 {
			return false
		}
		nw := uint64(rfc) | uint64(uc-1)<<32
		if t.dev.CAS64(off, w, nw) {
			t.dev.Persist(off, 8)
			return true
		}
	}
}

// Lookup finds a fingerprint without starting a transaction. It returns
// the entry index and canonical block. Note the result can be stale the
// moment the chain lock is released; write paths must use BeginTxn.
func (t *Table) Lookup(fp FP) (idx, canonical uint64, found bool) {
	prefix := t.PrefixOf(fp)
	mu := t.lockFor(prefix)
	mu.Lock()
	defer mu.Unlock()
	i, _, _, ok := t.lookupLocked(prefix, fp)
	if !ok {
		return 0, 0, false
	}
	return i, t.block(i), true
}

// CommitTxnByBlock resolves the entry through the delete pointer and
// commits a pending transaction on it. Used by crash recovery to resume
// in-process deduplications (Inconsistency Handling II).
func (t *Table) CommitTxnByBlock(block uint64) bool {
	idx, ok := t.DeletePtr(block)
	if !ok {
		return false
	}
	return t.CommitTxn(idx)
}

// DecRefResult describes a reclamation decision.
type DecRefResult struct {
	// HasEntry is false when the block has no FACT entry (never deduped):
	// the caller frees the block directly.
	HasEntry bool
	// FreeBlock is true when the reference count reached zero and the block
	// may be reclaimed.
	FreeBlock bool
	// RFC is the reference count after the decrement.
	RFC uint32
}

// DecRef is the reclamation path of §IV-C: resolve the block's FACT entry
// through the delete pointer (two NVM reads), decrement the RFC, and when
// it reaches zero with no transaction in flight, remove the entry from its
// chain and free the block. A block whose RFC hits zero while UC>0 is kept:
// the in-flight transaction is about to re-reference it.
func (t *Table) DecRef(block uint64) DecRefResult {
	if o := t.obs; o != nil {
		start := time.Now()
		defer func() { o.observe(o.DecRef, obs.OpFactDecRef, block, time.Since(start)) }()
	}
	idx, ok := t.DeletePtr(block)
	if !ok {
		return DecRefResult{HasEntry: false, FreeBlock: true}
	}
	// Lock the chain that owns the entry. The fingerprint read is
	// unsynchronized, so re-validate under the lock (the entry could have
	// been removed and reused between the reads).
	for {
		fp := t.fp(idx)
		prefix := t.PrefixOf(fp)
		mu := t.lockFor(prefix)
		mu.Lock()
		cur, ok2 := t.DeletePtr(block)
		if !ok2 {
			mu.Unlock()
			return DecRefResult{HasEntry: false, FreeBlock: true}
		}
		if cur != idx || t.fp(idx) != fp || t.block(idx) != block {
			mu.Unlock()
			idx = cur
			continue // raced; retry with the current owner
		}
		defer mu.Unlock()
		off := t.entryOff(idx) + feCounts
		for {
			w := t.dev.Load64(off)
			rfc, uc := uint32(w), uint32(w>>32)
			if rfc == 0 {
				// No committed references. With UC>0 a transaction is in
				// flight: keep the block. With UC==0 the entry is a
				// leftover; scrub-style removal.
				if uc == 0 {
					t.removeLocked(prefix, idx, block)
					return DecRefResult{HasEntry: true, FreeBlock: true}
				}
				return DecRefResult{HasEntry: true, FreeBlock: false}
			}
			nw := uint64(rfc-1) | uint64(uc)<<32
			if !t.dev.CAS64(off, w, nw) {
				continue
			}
			t.dev.Persist(off, 8)
			t.ctr.DecRefs.Inc()
			if rfc-1 == 0 && uc == 0 {
				t.removeLocked(prefix, idx, block)
				return DecRefResult{HasEntry: true, FreeBlock: true, RFC: 0}
			}
			return DecRefResult{HasEntry: true, FreeBlock: false, RFC: rfc - 1}
		}
	}
}

// removeLocked deletes the entry from its chain. Per the paper's Fig. 11
// discussion this costs at most three cache-line flushes: prev.next,
// next.prev, and the entry itself. DAA heads are cleared in place (the
// counts word first — the occupancy commit), preserving their chain
// linkage so the overflow entries stay reachable.
func (t *Table) removeLocked(prefix, idx, block uint64) {
	off := t.entryOff(idx)
	// Clear occupancy first: from here the entry is logically gone.
	t.dev.PersistStore64(off+feCounts, 0)
	t.setDelPtr(block, None)
	if idx == prefix {
		// DAA head: wipe identity, keep next (chain anchor) intact.
		var zero [FPSize]byte
		t.dev.Write(off+feFP, zero[:])
		t.dev.Store64(off+feBlock, 0)
		t.dev.Store64(off+fePrev, None)
		t.dev.Persist(off, EntrySize)
		t.ctr.Removes.Inc()
		return
	}
	prev, next := t.prev(idx), t.next(idx)
	t.setNext(prev, next) // flush 1
	if next != None {
		t.setPrev(next, prev) // flush 2
	}
	// Wipe the slot identity and return it to the IAA free list (flush 3).
	// The slot's own delete-pointer FIELD is left untouched: it belongs to
	// the block whose relative number equals this slot index, not to this
	// entry.
	var zero [FPSize]byte
	t.dev.Write(off+feFP, zero[:])
	t.dev.Store64(off+feBlock, 0)
	t.dev.Store64(off+fePrev, None)
	t.dev.Store64(off+feNext, None)
	t.dev.Persist(off, EntrySize)
	t.freeIAA(idx)
	t.ctr.Removes.Inc()
}
