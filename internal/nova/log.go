package nova

import (
	"fmt"
	"sync/atomic"

	"denova/internal/layout"
)

// Per-inode logs are linked lists of 4 KB log pages. Each page holds 63
// 64-byte entry slots; the 64th slot is the page tail carrying the link to
// the next page. The inode's persistent logTail field points at the next
// free entry slot; entries at or beyond the tail are invisible, which is
// what makes the 8-byte tail store the commit point of every transaction
// (§II-A "File System Consistency").

const logTailSlotOff = EntriesPerLogPage * EntrySize // byte 4032 within the page

// initLogPage persists a fresh page tail (next = next, magic) for block.
func (fs *FS) initLogPage(block, next uint64) {
	off := int64(block)*PageSize + logTailSlotOff
	rec := make(layout.Record, EntrySize)
	rec.PutU64(0, next)
	rec.PutU64(8, logPageMagic)
	fs.Dev.Write(off, rec)
	fs.Dev.Persist(off, EntrySize)
}

// logPageNext reads the next-page link of a log page.
func (fs *FS) logPageNext(block uint64) (uint64, error) {
	rec := make(layout.Record, EntrySize)
	fs.Dev.Read(int64(block)*PageSize+logTailSlotOff, rec)
	return logPageLink(block, rec)
}

// logPageLink decodes a log page's tail slot: the next-page link, after
// checking the page magic.
func logPageLink(block uint64, tailSlot layout.Record) (uint64, error) {
	if tailSlot.U64(8) != logPageMagic {
		return 0, fmt.Errorf("nova: block %d is not a log page", block)
	}
	return tailSlot.U64(0), nil
}

// setLogPageNext updates and persists the next link of a log page.
func (fs *FS) setLogPageNext(block, next uint64) {
	fs.Dev.PersistStore64(int64(block)*PageSize+logTailSlotOff, next)
}

// slotIndex returns the entry slot index of a device byte offset within its
// log page.
func slotIndex(off uint64) int { return int(off%PageSize) / EntrySize }

// appendEntryLocked writes rec at the inode's pending tail, allocating and
// linking a new log page when the current one is full. The entry bytes are
// persisted, but the entry is NOT committed: it becomes visible only when
// commitTailLocked advances the persistent tail pointer. The inode lock
// must be held.
func (fs *FS) appendEntryLocked(in *Inode, rec layout.Record) (uint64, error) {
	return fs.appendEntryWith(in, rec, true)
}

// appendEntryFlushLocked is appendEntryLocked without the trailing fence:
// the entry's lines are flushed but not ordered. The relink commit uses it
// to batch many appends under one fence — the caller MUST issue a Fence
// before committing the tail, or the batch is not crash-ordered.
func (fs *FS) appendEntryFlushLocked(in *Inode, rec layout.Record) (uint64, error) {
	return fs.appendEntryWith(in, rec, false)
}

func (fs *FS) appendEntryWith(in *Inode, rec layout.Record, fence bool) (uint64, error) {
	if len(rec) != EntrySize {
		panic("nova: log entry must be exactly 64 bytes")
	}
	tail := in.pendingTail()
	if slotIndex(tail) == EntriesPerLogPage {
		pg := pageOfOff(tail)
		if idx := in.logPageIndex(pg); idx >= 0 && idx+1 < len(in.logPages) {
			// A spare page is already linked past the full one (pre-extended
			// by ensureLogSpaceLocked); advance into it without touching PM.
			tail = in.logPages[idx+1] * PageSize
		} else {
			// Current page is full: allocate, initialize and link a new page.
			// The link is persisted before any entry lands in the new page, and
			// the commit point remains the inode tail, so a crash anywhere in
			// this sequence leaves the log consistent.
			np, err := fs.alloc.Alloc(int(in.ino), 1)
			if err != nil {
				return 0, err
			}
			fs.initLogPage(np, 0)
			last := in.logPages[len(in.logPages)-1]
			fs.setLogPageNext(last, np)
			in.logPages = append(in.logPages, np)
			in.live[np] = 0
			tail = np * PageSize
		}
	}
	fs.Dev.Write(int64(tail), rec)
	if fence {
		fs.Dev.Persist(int64(tail), EntrySize)
	} else {
		fs.Dev.Flush(int64(tail), EntrySize)
	}
	in.pending = tail + EntrySize
	return tail, nil
}

// logPageIndex returns pg's position in the inode's page list, or -1.
func (in *Inode) logPageIndex(pg uint64) int {
	for i, b := range in.logPages {
		if b == pg {
			return i
		}
	}
	return -1
}

// freeSlotsLocked counts how many entries can be appended before a page
// allocation is needed: the slots left in the (pending) tail page plus
// every slot of the spare pages already linked after it.
func (in *Inode) freeSlotsLocked() int {
	tail := in.pendingTail()
	idx := in.logPageIndex(pageOfOff(tail))
	if idx < 0 {
		panic(fmt.Sprintf("nova: inode %d tail page missing from page list", in.ino))
	}
	free := EntriesPerLogPage - slotIndex(tail)
	free += (len(in.logPages) - idx - 1) * EntriesPerLogPage
	return free
}

// ensureLogSpaceLocked pre-extends the log chain until at least n entry
// appends can proceed without allocating. The spare pages are linked and
// persisted immediately, but the commit point stays the inode tail, so a
// crash leaves at worst empty pages past the tail — the same shape as a
// crash between page link and entry commit on the normal append path,
// which recovery's end-of-mount fast-GC sweep already reclaims. Callers
// use it to (a) make a multi-entry transaction all-or-nothing with respect
// to ENOSPC and (b) keep page allocation out of the fence-batched relink
// append loop. The inode lock must be held.
func (fs *FS) ensureLogSpaceLocked(in *Inode, n int) error {
	for free := in.freeSlotsLocked(); free < n; free += EntriesPerLogPage {
		np, err := fs.alloc.Alloc(int(in.ino), 1)
		if err != nil {
			return err
		}
		fs.initLogPage(np, 0)
		last := in.logPages[len(in.logPages)-1]
		fs.setLogPageNext(last, np)
		in.logPages = append(in.logPages, np)
		in.live[np] = 0
	}
	return nil
}

// pendingTail returns where the next entry will be appended: the committed
// tail, or past any uncommitted entries appended since.
func (in *Inode) pendingTail() uint64 {
	if in.pending != 0 {
		return in.pending
	}
	return in.logTail
}

// commitTailLocked atomically publishes all entries appended since the last
// commit by storing the new tail with a single persistent 64-bit write —
// step ③ of Fig. 1 and step ⑤ of the deduplication path (Fig. 6).
func (fs *FS) commitTailLocked(in *Inode) {
	if in.pending == 0 || in.pending == in.logTail {
		return
	}
	fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inLogTail, in.pending)
	in.logTail = in.pending
	in.pending = 0
}

// walkLog iterates the committed entries of an inode's log in append order,
// calling fn with each entry's device offset and raw record. Stops early if
// fn returns false. Each page is read in one device access, up to the
// committed tail, and its next-page link comes from the same read; rec
// aliases that page buffer and is valid only during the call.
func (fs *FS) walkLog(head, tail uint64, fn func(off uint64, rec layout.Record) bool) error {
	buf := make(layout.Record, PageSize)
	for page := head; page != 0; {
		base := page * PageSize
		// The committed tail may sit at this page's boundary slot: the page
		// filled up but no entry in a later page was ever committed. A
		// crash can leave a successor page linked whose slots still hold
		// garbage from the block's previous life — never read past the
		// tail's page.
		last := pageOfOff(tail) == page
		n := PageSize
		if last {
			n = slotIndex(tail) * EntrySize
		}
		if n == 0 {
			return nil
		}
		fs.Dev.Read(int64(base), buf[:n])
		for s := 0; s < EntriesPerLogPage && s*EntrySize < n; s++ {
			if !fn(base+uint64(s*EntrySize), buf[s*EntrySize:(s+1)*EntrySize]) {
				return nil
			}
		}
		if last {
			return nil
		}
		next, err := logPageLink(page, buf[logTailSlotOff:])
		if err != nil {
			return err
		}
		page = next
	}
	return nil
}

// pageOfOff returns the block number containing a device byte offset.
func pageOfOff(off uint64) uint64 { return off / PageSize }

// addLiveLocked increments the live-reference count of the log page holding
// entryOff.
func (in *Inode) addLiveLocked(entryOff uint64, n int) {
	in.live[pageOfOff(entryOff)] += n
}

// dropLiveLocked decrements the live count of entryOff's page and triggers
// fast GC when the page dies. Returns true if the page was reclaimed.
func (fs *FS) dropLiveLocked(in *Inode, entryOff uint64, n int) bool {
	pg := pageOfOff(entryOff)
	in.live[pg] -= n
	if in.live[pg] < 0 {
		panic(fmt.Sprintf("nova: live count of log page %d went negative", pg))
	}
	return fs.fastGCLocked(in, pg)
}

// fastGCLocked implements NOVA's fast garbage collection: a log page whose
// entries are all dead is unlinked from the chain and freed without moving
// any data (§II-A: "an invalid log page can be reclaimed without
// interfering with other processes"). Directory logs are exempt: dentry
// liveness cannot be decided per page without replay ordering.
func (fs *FS) fastGCLocked(in *Inode, pg uint64) bool {
	if in.dir {
		return false
	}
	if in.live[pg] != 0 {
		return false
	}
	// Never reclaim the page holding the (pending) tail: future appends land
	// there. Head pages are reclaimable by advancing the inode's logHead.
	if pageOfOff(in.pendingTail()) == pg {
		return false
	}
	idx := -1
	for i, b := range in.logPages {
		if b == pg {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("nova: GC of unknown log page %d", pg))
	}
	next, err := fs.logPageNext(pg)
	if err != nil {
		panic(err)
	}
	if idx == 0 {
		// Head page: move the persistent log head forward atomically.
		fs.Dev.PersistStore64(fs.inodeOff(in.ino)+inLogHead, next)
		in.logHead = next
	} else {
		prev := in.logPages[idx-1]
		fs.setLogPageNext(prev, next)
	}
	in.logPages = append(in.logPages[:idx], in.logPages[idx+1:]...)
	delete(in.live, pg)
	fs.alloc.Free(pg, 1)
	atomic.AddInt64(&fs.gcLogPages, 1)
	return true
}
