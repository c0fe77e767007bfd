package fact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"denova/internal/pmem"
)

// TestRecoverySweepImagesPinned crashes at every persist point of three
// chain mutations (a reorder, a colliding insert, a chain-middle remove),
// runs the full recovery sequence on each image, and folds every
// post-recovery image and its RecoverStats into one SHA-256 per sweep. The
// pinned digests were recorded before the recovery sweeps were rewritten
// to read PM a page at a time; they must hold at every worker count.
func TestRecoverySweepImagesPinned(t *testing.T) {
	t.Parallel()
	// Three chains of varied RFC plus scattered singletons.
	build := func() (*pmem.Device, *Table) {
		dev, tab := newTable(t)
		block := uint64(tDataStart)
		for _, p := range []uint64{20, 15, 3} {
			for i := byte(1); i <= 5; i++ {
				block++
				res := mustBegin(t, tab, fpWithPrefix(p, i), block)
				tab.CommitTxn(res.Idx)
				for r := 0; r < int(i)%3; r++ {
					d := mustBegin(t, tab, fpWithPrefix(p, i), tDataStart+60)
					tab.CommitTxn(d.Idx)
				}
			}
		}
		for _, p := range []uint64{1, 40, 63} {
			block++
			res := mustBegin(t, tab, fpWithPrefix(p, 9), block)
			tab.CommitTxn(res.Idx)
		}
		return dev, tab
	}
	sweeps := []struct {
		name   string
		op     func(tab *Table)
		digest string
	}{
		{"reorder", func(tab *Table) { tab.ReorderChain(20) }, "980c3eccc62a4c196adf0687d350bc05e6ff95b4905beb89374bd8c056c2b851"},
		{"insert", func(tab *Table) { _, _ = tab.BeginTxn(fpWithPrefix(15, 7), tDataStart+50) }, "123c643bae0046947ef96c613b83661adfedc9852a470fe5498f7cd9c648e1b6"},
		{"remove", func(tab *Table) {
			for i := 0; i < 3; i++ {
				tab.DecRef(tDataStart + 8)
			}
		}, "58e8933e26eb088df937664feb56717bdfc2c19f25debd10443191522edb6303"},
	}
	for _, sw := range sweeps {
		dev0, tab0 := build()
		start := dev0.PersistOps()
		sw.op(tab0)
		total := dev0.PersistOps() - start
		for _, workers := range []int{1, 3} {
			h := sha256.New()
			for k := int64(1); k <= total; k++ {
				dev, tab := build()
				dev.SetCrashAfter(k)
				pmem.RunToCrash(func() { sw.op(tab) })
				img := dev.CrashImage(pmem.CrashDropDirty, k)
				rt := Attach(img, Config{Base: 0, PrefixBits: tPrefixBits, DataStart: tDataStart, NumData: tNumData})
				rt.RecoveryWorkers = workers
				rs, err := rt.RecoverStructure()
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", sw.name, k, workers, err)
				}
				rs.add(rt.ZeroAllUC())
				ss, dropped := rt.Scrub(func(b uint64) bool { return b%5 != 0 })
				rs.add(ss)
				if err := rt.CheckInvariants(); err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", sw.name, k, workers, err)
				}
				buf := make([]byte, img.Size())
				img.Read(0, buf)
				fmt.Fprintf(h, "k=%d %+v dropped=%v iaaFree=%d\n", k, rs, dropped, rt.IAAFree())
				h.Write(buf)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != sw.digest {
				t.Errorf("%s (%d persist points) workers=%d: digest %s, pinned %s", sw.name, total, workers, got, sw.digest)
			}
		}
	}
}

// TestRecoverySweepReadAccesses counts device accesses, not time: on a
// clean table every recovery sweep reads at most one page of entries per
// access, plus one access per chain member it walks.
func TestRecoverySweepReadAccesses(t *testing.T) {
	t.Parallel()
	const prefixBits, dataStart, numData = 10, 5000, 2048
	cfg := Config{Base: 0, PrefixBits: prefixBits, DataStart: dataStart, NumData: numData}
	dev := pmem.New(numData*EntrySize, pmem.ProfileZero)
	tab := New(dev, cfg)
	tab.ZeroFill()
	// 300 entries over 200 prefixes: 100 chains with one IAA member each.
	for i := 0; i < 300; i++ {
		var fp FP
		p := uint16(i % 200)
		fp[0], fp[1] = byte(p>>2), byte(p<<6)
		fp[19] = byte(i / 200)
		res := mustBegin(t, tab, fp, dataStart+uint64(i))
		tab.CommitTxn(res.Idx)
	}
	const members = 100
	pages := func(n int64) int64 { return (n + entriesPerPage - 1) / entriesPerPage }

	rt := Attach(dev.Clone(), cfg)
	rt.RecoveryWorkers = 3
	reads := func(fn func()) int64 {
		before := rt.dev.Stats()
		fn()
		return rt.dev.Stats().Sub(before).ReadOps
	}
	var rs RecoverStats
	got := reads(func() {
		var err error
		if rs, err = rt.RecoverStructure(); err != nil {
			t.Fatal(err)
		}
	})
	if rs != (RecoverStats{}) {
		t.Fatalf("clean table needed repairs: %+v", rs)
	}
	// DAA chain sweep, IAA sweep, and the two delete-pointer scans.
	daa, total := rt.DAAEntries(), rt.TotalEntries()
	if want := pages(daa) + pages(total-daa) + pages(total) + pages(numData) + members; got > want {
		t.Errorf("RecoverStructure: %d read accesses, want <= %d", got, want)
	}
	if got, want := reads(func() { rt.ZeroAllUC() }), pages(total); got > want {
		t.Errorf("ZeroAllUC: %d read accesses, want <= %d", got, want)
	}
	if got, want := reads(func() { rt.Scrub(func(uint64) bool { return true }) }), pages(total); got > want {
		t.Errorf("Scrub: %d read accesses, want <= %d", got, want)
	}
	if got, want := reads(func() { rt.LiveEntries() }), pages(total); got > want {
		t.Errorf("LiveEntries: %d read accesses, want <= %d", got, want)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
