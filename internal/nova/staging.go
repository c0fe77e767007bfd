package nova

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"denova/internal/obs"
)

// SplitFS-style split write path. The slow path is the five-step CoW write
// in file.go: one log entry, one flush, one fence per write. The fast path
// staged here accumulates appends and overwrites in per-inode DRAM page
// images and makes them durable with a single batched "relink" commit:
//
//	① allocate one contiguous data run per staged extent,
//	② drain the page images to PM with non-temporal stores,
//	③ append one write entry per run — lines flushed, no fence —
//	   then issue ONE fence and commit the log tail atomically,
//	④ install the radix mappings and ⑤ reclaim shadowed blocks, per run.
//
// N staged writes thus cost ~one fence instead of N (SplitFS's staged
// append + relink argument, PAPERS.md). Until the relink commit the staged
// bytes live only in DRAM: a crash loses exactly the unsynced writes and
// can never tear the log, because nothing of the batch is visible until
// the single 8-byte tail store. Reads overlay the staging buffer on the
// radix tree under the inode read lock, so stagers and readers never
// serialize on the inode write lock. Metadata operations (truncate,
// delete, thorough GC, unmount) quiesce the buffer first: truncate and GC
// relink, delete discards.
//
// Log-space reservation (ensureLogSpaceLocked) happens before any entry is
// appended, which keeps page allocation out of the fence-batched append
// loop and makes the multi-entry commit all-or-nothing under ENOSPC.

// stageBuf is the DRAM staging state of one file. Its mutex nests inside
// the inode lock (writers hold in.mu.RLock + st.mu; relink holds in.mu +
// st.mu), and is always taken before any allocator lock.
type stageBuf struct {
	mu    sync.RWMutex      //denova:locks(nova.stage)
	pages map[uint64][]byte // file page -> full PageSize image
	size  uint64            // effective file size including staged bytes
	flag  uint8             // dedupe-flag the relinked entries will carry
	// sc is the span context of the most recent traced stager: the relink
	// that eventually drains the buffer (possibly under a different
	// request, or none) attributes its spans and dedup enqueues to that
	// originating write's trace.
	sc obs.SpanContext
}

func newStageBuf() *stageBuf {
	return &stageBuf{pages: make(map[uint64][]byte)}
}

// dirty reports whether the buffer holds unrelinked pages. st.mu held.
func (st *stageBuf) dirty() bool { return len(st.pages) > 0 }

// effectiveSize returns the file size as seen through the staging overlay.
// st.mu held (read or write); base is the committed in.size.
func (st *stageBuf) effectiveSize(base uint64) uint64 {
	if st.dirty() && st.size > base {
		return st.size
	}
	return base
}

// StageWrite is the fast write path: it copies data into the inode's DRAM
// staging buffer and returns without touching PM. Only the inode READ lock
// is held, so concurrent readers (and other stagers) are never excluded;
// per-buffer ordering comes from the staging mutex. The bytes become
// durable at the next relink (File.Sync, truncate/GC quiesce, or the
// staging flusher); a crash before that loses them — and only them.
func (fs *FS) StageWrite(in *Inode, off uint64, data []byte, flag uint8) (int, error) {
	return fs.StageWriteCtx(in, off, data, flag, obs.SpanContext{})
}

// StageWriteCtx is StageWrite carrying the caller's span context. The
// buffer remembers the last traced stager so the eventual relink (and the
// dedup work it enqueues) is attributed to the request that staged the
// data.
func (fs *FS) StageWriteCtx(in *Inode, off uint64, data []byte, flag uint8, sc obs.SpanContext) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.dir {
		return 0, fmt.Errorf("stage write: inode %d: %w", in.ino, ErrIsDir)
	}
	st := in.stage
	if st == nil {
		return 0, fmt.Errorf("stage write: inode %d has no staging buffer", in.ino)
	}
	o := fs.obs
	var start time.Time
	var ssc obs.SpanContext
	if o != nil {
		ssc = o.Tracer.ChildOrRoot(sc, sc.Tenant)
		start = time.Now()
	}
	st.mu.Lock()
	if !st.dirty() {
		st.size = in.size
	}
	st.flag = flag
	if ssc.Valid() {
		st.sc = ssc
	}
	end := off + uint64(len(data))
	written := uint64(0)
	n := uint64(len(data))
	for written < n {
		pg := (off + written) / PageSize
		po := (off + written) % PageSize
		chunk := PageSize - po
		if chunk > n-written {
			chunk = n - written
		}
		img, ok := st.pages[pg]
		if !ok {
			img = make([]byte, PageSize)
			if po != 0 || chunk != PageSize {
				// Partial coverage: merge the page's current content. Bytes
				// past in.size in a mapped page are zero by construction
				// (partial tail pages are assembled zero-padded; truncate
				// zero-tails its cut page), so no extra masking is needed.
				fs.readPageInto(in, pg, img)
			}
			st.pages[pg] = img
		}
		copy(img[po:po+chunk], data[written:written+chunk])
		written += chunk
	}
	if end > st.size {
		st.size = end
	}
	st.mu.Unlock()
	atomic.AddInt64(&fs.stagedBytes, int64(len(data)))
	if o != nil {
		d := time.Since(start)
		o.Stage.ObserveSpan(d, ssc.Trace)
		o.StagedBytes.Add(int64(len(data)))
		o.Tracer.EmitSpan(obs.OpStageWrite, ssc, sc.Span, in.ino, uint64(len(data)), start, d)
	}
	return len(data), nil
}

// StagedPages reports how many pages are staged and not yet relinked.
// Flush policies poll it without taking the inode lock.
func (in *Inode) StagedPages() int {
	st := in.stage
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.pages)
}

// Relink drains the inode's staging buffer through one batched log commit.
// It returns the number of write entries appended (0 when the buffer was
// clean). On error (ENOSPC) the staging buffer is left intact — nothing is
// lost, and the caller may free space and retry.
func (fs *FS) Relink(in *Inode) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return fs.relinkLocked(in)
}

// relinkLocked is Relink with the inode write lock already held. It is the
// quiesce point used by truncate, thorough GC, and unmount.
func (fs *FS) relinkLocked(in *Inode) (runs int, err error) {
	st := in.stage
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.dirty() {
		return 0, nil
	}

	o := fs.obs
	fine := o != nil && o.Fine
	var start, mark time.Time
	var dAlloc, dFill, dLog, dInstall time.Duration
	// The relink span continues the last traced stager's trace, so the
	// batched commit (and the dedup work it enqueues) shows up under the
	// request that staged the data — even when a later op triggered it.
	osc := st.sc
	var rsc obs.SpanContext
	if o != nil {
		rsc = o.Tracer.ChildOrRoot(osc, osc.Tenant)
		start = time.Now()
		mark = start
	}
	step := func(d *time.Duration) {
		if fine {
			now := time.Now()
			*d = now.Sub(mark)
			mark = now
		}
	}

	// Coalesce the staged pages into contiguous extents; each becomes one
	// write entry describing one contiguous block run.
	pgs := make([]uint64, 0, len(st.pages))
	for pg := range st.pages {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	type extent struct {
		pg    uint64
		n     int64
		block uint64
	}
	var exts []extent
	for _, pg := range pgs {
		if len(exts) > 0 {
			last := &exts[len(exts)-1]
			if pg == last.pg+uint64(last.n) {
				last.n++
				continue
			}
		}
		exts = append(exts, extent{pg: pg, n: 1})
	}

	// Reserve log slots up front: after this point no append can fail, so
	// the batch commits or aborts as a unit.
	if err := fs.ensureLogSpaceLocked(in, len(exts)); err != nil {
		return 0, err
	}

	// ① One contiguous allocation per extent; all-or-nothing.
	for i := range exts {
		block, err := fs.alloc.Alloc(int(in.ino), exts[i].n)
		if err != nil {
			for _, e := range exts[:i] {
				fs.alloc.Free(e.block, e.n)
			}
			return 0, err
		}
		exts[i].block = block
	}
	step(&dAlloc)

	// ② Drain the page images to PM (self-durable non-temporal stores).
	for _, e := range exts {
		for i := int64(0); i < e.n; i++ {
			img := st.pages[e.pg+uint64(i)]
			fs.Dev.WriteNT(int64(e.block+uint64(i))*PageSize, img)
		}
	}
	step(&dFill)

	// ③ Append one entry per extent with the lines flushed but unfenced,
	// then order the whole batch with a single fence and publish it with
	// the atomic tail store — the relink commit point.
	mtime := fs.tick()
	offs := make([]uint64, len(exts))
	for i, e := range exts {
		end := (e.pg + uint64(e.n)) * PageSize
		if end > st.size {
			end = st.size
		}
		rec := encodeWriteEntry(WriteEntry{
			DedupeFlag: st.flag,
			NumPages:   uint32(e.n),
			PgOff:      e.pg,
			Block:      e.block,
			EndOff:     end,
			Ino:        in.ino,
			Mtime:      mtime,
			Seq:        fs.nextSeq(),
		})
		off, aerr := fs.appendEntryFlushLocked(in, rec)
		if aerr != nil {
			// Unreachable after the slot reservation; undo so nothing leaks.
			in.pending = 0
			for _, e := range exts {
				fs.alloc.Free(e.block, e.n)
			}
			return 0, aerr
		}
		offs[i] = off
	}
	fs.Dev.Fence()
	fs.commitTailLocked(in)
	step(&dLog)

	// ④⑤ Install the new mappings and reclaim what they shadow.
	for i, e := range exts {
		fs.installRadixLocked(in, e.pg, e.block, e.n, offs[i])
		fs.reclaimShadowedLocked(in)
	}
	if st.size > in.size {
		in.size = st.size
	}
	in.mtime = mtime
	step(&dInstall)

	pages := len(pgs)
	st.pages = make(map[uint64][]byte)
	st.size = 0
	st.sc = obs.SpanContext{}

	atomic.AddInt64(&fs.relinks, 1)
	atomic.AddInt64(&fs.relinkRuns, int64(len(exts)))
	atomic.AddInt64(&fs.relinkPages, int64(pages))
	atomic.AddInt64(&fs.writes, int64(len(exts)))

	// One enqueue per relinked run: the dedup daemon sees exactly one
	// entry per contiguous extent, not one per staged write.
	if fs.onWrite != nil {
		for i := range exts {
			fs.onWrite(in, offs[i], rsc)
		}
	}
	if o != nil {
		total := time.Since(start)
		o.Relink.ObserveSpan(total, rsc.Trace)
		o.Tracer.EmitSpan(obs.OpRelink, rsc, osc.Span, in.ino, uint64(len(exts)), start, total)
		if fine {
			o.RelinkAlloc.Observe(dAlloc)
			o.RelinkFill.Observe(dFill)
			o.RelinkLog.Observe(dLog)
			o.RelinkInstall.Observe(dInstall)
			at := start
			emitStep := func(op obs.Op, arg uint64, d time.Duration) {
				o.Tracer.EmitSpan(op, o.Tracer.StartChild(rsc), rsc.Span, in.ino, arg, at, d)
				at = at.Add(d)
			}
			emitStep(obs.OpRelinkAlloc, uint64(len(exts)), dAlloc)
			emitStep(obs.OpRelinkFill, uint64(pages), dFill)
			emitStep(obs.OpRelinkLog, uint64(len(exts)), dLog)
			emitStep(obs.OpRelinkInstall, uint64(pages), dInstall)
		}
	}
	return len(exts), nil
}

// RelinkAll relinks every file inode with staged data. Returns the first
// error (continuing past it so later files still drain).
func (fs *FS) RelinkAll() error {
	fs.imu.RLock()
	inos := make([]*Inode, 0, len(fs.inodes))
	for _, in := range fs.inodes {
		if !in.dir {
			inos = append(inos, in)
		}
	}
	fs.imu.RUnlock()
	var first error
	for _, in := range inos {
		if in.StagedPages() == 0 {
			continue
		}
		if _, err := fs.Relink(in); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// discardStagingLocked drops staged data without persisting it (delete
// path: the file is going away, so the staged bytes die with it).
func (in *Inode) discardStagingLocked() {
	if in.stage == nil {
		return
	}
	in.stage.mu.Lock()
	in.stage.pages = make(map[uint64][]byte)
	in.stage.size = 0
	in.stage.sc = obs.SpanContext{}
	in.stage.mu.Unlock()
}
