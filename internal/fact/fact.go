// Package fact implements the Failure Atomic Consistent Table of §IV-C: a
// DRAM-free, persistent deduplication metadata index. The table is a static
// linear array of 64-byte entries living entirely on the PM device, split
// into a Direct Access Area (DAA, indexed by the fingerprint prefix) and an
// Indirect Access Area (IAA) holding prefix-collision overflow entries
// chained with doubly linked lists.
//
// Consistency machinery, following the paper:
//
//   - The reference count (RFC) and update count (UC) share one naturally
//     aligned 8-byte word, so "decrease the UC and increase the RFC" is a
//     single atomic persistent store (§IV-C).
//   - Every entry fits one CPU cache line, capping each update at one flush
//     and one fence.
//   - The delete pointer field of the entry slot indexed by a block's
//     relative number maps that block back to its owning FACT entry, so
//     reclamation needs exactly two NVM reads and no re-fingerprinting.
//   - IAA chain reordering uses the head's prev field as a commit flag
//     (Fig. 7), making the in-place pointer rewrite recoverable.
//
// Layout note: the paper draws the entry as RFC(4) UC(4) FP(20) block(8)
// prev(8) next(8) delete(8) pad(4). We keep the same fields and sizes but
// move the fingerprint behind the pointer words so that every 8-byte field
// is naturally aligned for atomic access: RFC(4) UC(4) block(8) prev(8)
// next(8) delete(8) FP(20) pad(4).
package fact

import (
	"fmt"
	"sync"

	"denova/internal/layout"
	"denova/internal/pmem"
)

// EntrySize is the on-PM size of a FACT entry: one cache line.
const EntrySize = 64

// None is the nil value for prev/next/delete-pointer fields (the paper's
// "-1").
const None = ^uint64(0)

// FPSize is the fingerprint length (SHA-1).
const FPSize = 20

// FP is a strong content fingerprint.
type FP [FPSize]byte

// Entry field byte offsets.
const (
	feCounts = 0  // u32 RFC | u32 UC as one aligned u64 word
	feRFC    = 0  // u32
	feUC     = 4  // u32
	feBlock  = 8  // u64
	fePrev   = 16 // u64
	feNext   = 24 // u64
	feDelPtr = 32 // u64
	feFP     = 40 // 20 bytes
)

const lockStripes = 1024

// Table is a mounted FACT. All methods are safe for concurrent use; chain
// mutations are serialized per fingerprint prefix by lock striping (the
// locks are DRAM-only scaffolding, not index state — the lookup structure
// itself is entirely on PM, which is the paper's "DRAM-free" property).
type Table struct {
	dev        *pmem.Device
	base       int64  // device byte offset of entry 0
	prefixBits int    // n
	daa        int64  // 2^n (DAA entries; IAA has the same count)
	total      int64  // 2^(n+1)
	dataStart  uint64 // first data block number
	numData    int64

	locks [lockStripes]sync.Mutex //denova:locks(fact.chain)

	iamu    sync.Mutex //denova:locks(fact.iaa)
	iaaFree []uint64   // free IAA entry indexes (DRAM free list, rebuilt at mount)

	obs *Observer // metrics/tracing; nil = uninstrumented

	// Reordering policy (§IV-E): a chain is reordered when a lookup walks
	// deeper than DepthThreshold to find an entry whose RFC is at least
	// RFCThreshold.
	ReorderEnabled bool
	DepthThreshold int
	RFCThreshold   uint32

	// RecoveryWorkers is the pool size for the mount-time recovery sweeps
	// (RecoverStructure / ZeroAllUC / Scrub); <= 0 runs them sequentially.
	// Any value produces the same persistent image (see recover.go).
	RecoveryWorkers int

	reorders reorderQueue
	stats    Stats
}

// Config carries the geometry FACT needs from the file system superblock.
type Config struct {
	Base       int64  // byte offset of the FACT region
	PrefixBits int    // n
	DataStart  uint64 // first data block number
	NumData    int64  // number of data blocks
}

// New attaches a Table over an already zeroed region (mkfs path). The
// region must hold 2^(n+1) entries of 64 bytes.
func New(dev *pmem.Device, cfg Config) *Table {
	t := &Table{
		dev:            dev,
		base:           cfg.Base,
		prefixBits:     cfg.PrefixBits,
		daa:            int64(1) << uint(cfg.PrefixBits),
		total:          int64(2) << uint(cfg.PrefixBits),
		dataStart:      cfg.DataStart,
		numData:        cfg.NumData,
		ReorderEnabled: true,
		DepthThreshold: 2,
		RFCThreshold:   2,
	}
	// All IAA slots start free.
	t.iaaFree = make([]uint64, 0, t.daa)
	for i := t.total - 1; i >= t.daa; i-- {
		t.iaaFree = append(t.iaaFree, uint64(i))
	}
	return t
}

// DAAEntries returns the number of direct-access slots (2^n).
func (t *Table) DAAEntries() int64 { return t.daa }

// TotalEntries returns the total slot count (DAA + IAA).
func (t *Table) TotalEntries() int64 { return t.total }

// PrefixBits returns n.
func (t *Table) PrefixBits() int { return t.prefixBits }

// PrefixOf returns the DAA index for a fingerprint: its first n bits.
func (t *Table) PrefixOf(fp FP) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(fp[i])
	}
	return v >> uint(64-t.prefixBits)
}

func (t *Table) entryOff(idx uint64) int64 {
	if idx >= uint64(t.total) {
		panic(fmt.Sprintf("fact: entry index %d out of range (%d entries)", idx, t.total))
	}
	return t.base + int64(idx)*EntrySize
}

// lockFor returns the stripe lock guarding the chain of the given prefix.
//
//denova:locks(fact.chain)
func (t *Table) lockFor(prefix uint64) *sync.Mutex {
	return &t.locks[prefix%lockStripes]
}

// --- Field accessors (one NVM touch each; counted by pmem) ---

func (t *Table) counts(idx uint64) (rfc, uc uint32) {
	w := t.dev.Load64(t.entryOff(idx) + feCounts)
	return uint32(w), uint32(w >> 32)
}

// RFC returns the entry's reference count.
func (t *Table) RFC(idx uint64) uint32 { r, _ := t.counts(idx); return r }

// UC returns the entry's update count.
func (t *Table) UC(idx uint64) uint32 { _, u := t.counts(idx); return u }

func (t *Table) block(idx uint64) uint64 { return t.dev.Load64(t.entryOff(idx) + feBlock) }
func (t *Table) prev(idx uint64) uint64  { return t.dev.Load64(t.entryOff(idx) + fePrev) }
func (t *Table) next(idx uint64) uint64  { return t.dev.Load64(t.entryOff(idx) + feNext) }

func (t *Table) fp(idx uint64) FP {
	var fp FP
	t.dev.Read(t.entryOff(idx)+feFP, fp[:])
	return fp
}

func (t *Table) setPrev(idx, v uint64) {
	off := t.entryOff(idx)
	t.dev.Store64(off+fePrev, v)
	t.dev.Persist(off, EntrySize)
}

func (t *Table) setNext(idx, v uint64) {
	off := t.entryOff(idx)
	t.dev.Store64(off+feNext, v)
	t.dev.Persist(off, EntrySize)
}

// occupied reports whether the entry holds a live or in-flight record: the
// counts word is the occupancy commit point (it is the last field persisted
// on insert and the first cleared on delete).
func (t *Table) occupied(idx uint64) bool {
	return t.dev.Load64(t.entryOff(idx)+feCounts) != 0
}

// Entry is a decoded FACT entry snapshot, for inspection and tests.
type Entry struct {
	Idx    uint64
	RFC    uint32
	UC     uint32
	Block  uint64
	Prev   uint64
	Next   uint64
	DelPtr uint64
	FP     FP
}

// EntryAt decodes the entry at idx.
func (t *Table) EntryAt(idx uint64) Entry {
	off := t.entryOff(idx)
	rec := make(layout.Record, EntrySize)
	t.dev.Read(off, rec)
	var fp FP
	copy(fp[:], rec.Bytes(feFP, FPSize))
	return Entry{
		Idx:    idx,
		RFC:    rec.U32(feRFC),
		UC:     rec.U32(feUC),
		Block:  rec.U64(feBlock),
		Prev:   rec.U64(fePrev),
		Next:   rec.U64(feNext),
		DelPtr: rec.U64(feDelPtr),
		FP:     fp,
	}
}

// inData reports whether block lies in the data region.
func (t *Table) inData(block uint64) bool {
	return block >= t.dataStart && block-t.dataStart < uint64(t.numData)
}

// relBlock converts an absolute block number to the delete-pointer slot
// index. Panics if the block is outside the data region.
func (t *Table) relBlock(block uint64) uint64 {
	if !t.inData(block) {
		panic(fmt.Sprintf("fact: block %d outside data region", block))
	}
	return block - t.dataStart
}

// delPtr reads the delete pointer stored in the slot indexed by block.
func (t *Table) delPtr(block uint64) uint64 {
	return t.dev.Load64(t.entryOff(t.relBlock(block)) + feDelPtr)
}

// setDelPtr persists the delete pointer for block. The pointer is an 8-byte
// commit word (recovery trusts it to find a block's owning entry), so it
// goes durable through the atomic store-persist primitive.
func (t *Table) setDelPtr(block, idx uint64) {
	off := t.entryOff(t.relBlock(block))
	t.dev.PersistStore64(off+feDelPtr, idx)
}

// DeletePtr exposes the delete-pointer lookup: the FACT entry index owning
// block, or ok=false when the block has no FACT entry.
func (t *Table) DeletePtr(block uint64) (uint64, bool) {
	v := t.delPtr(block)
	if v == None {
		return 0, false
	}
	return v, true
}

// ZeroFill initializes the FACT region for mkfs: every prev/next/delete
// pointer becomes None and all counts zero. (A freshly zeroed device would
// read pointer fields as 0, which is a valid index; the paper's init sets
// them to -1.)
func (t *Table) ZeroFill() {
	rec := make(layout.Record, EntrySize)
	rec.PutU64(fePrev, None)
	rec.PutU64(feNext, None)
	rec.PutU64(feDelPtr, None)
	for i := int64(0); i < t.total; i++ {
		t.dev.WriteNT(t.base+i*EntrySize, rec)
	}
}
