package pmem

import (
	"sync"
	"testing"
)

func TestLoadWordsMatchesLoad64(t *testing.T) {
	t.Parallel()
	d := newDev(t, 2)
	for off := int64(0); off < 2*PageSize; off += 8 {
		d.Store64(off, uint64(off)*0x9e3779b97f4a7c15)
	}
	// Whole pages, a sub-line run, and runs that start and end mid-line.
	for _, c := range []struct {
		off   int64
		words int
	}{{0, PageSize / 8}, {PageSize, PageSize / 8}, {8, 3}, {40, 20}, {PageSize - 16, 6}} {
		dst := make([]uint64, c.words)
		d.LoadWords(c.off, dst)
		for i, v := range dst {
			if want := d.Load64(c.off + int64(i)*8); v != want {
				t.Fatalf("LoadWords(%d)[%d] = %#x, Load64 = %#x", c.off, i, v, want)
			}
		}
	}
}

func TestLoadWordsChargedLikeRead(t *testing.T) {
	t.Parallel()
	p := LatencyProfile{Name: "test", ReadAccessOverhead: 250, ReadPerLine: 40}
	d := New(2*PageSize, p)
	for _, c := range []struct {
		off   int64
		words int
		lines int64
	}{{0, PageSize / 8, 64}, {8, 3, 1}, {56, 2, 2}, {PageSize - 16, 6, 2}} {
		before := d.Stats()
		d.LoadWords(c.off, make([]uint64, c.words))
		s := d.Stats().Sub(before)
		if want := int64(p.ReadAccessOverhead) + c.lines*int64(p.ReadPerLine); s.SimLatencyNs != want {
			t.Errorf("LoadWords(%d, %d words): SimLatencyNs = %d, want %d", c.off, c.words, s.SimLatencyNs, want)
		}
		if s.ReadLines != c.lines || s.ReadOps != 1 || s.ReadBytes != int64(c.words*8) {
			t.Errorf("LoadWords(%d, %d words): ops=%d lines=%d bytes=%d, want 1, %d, %d",
				c.off, c.words, s.ReadOps, s.ReadLines, s.ReadBytes, c.lines, c.words*8)
		}
	}
	// Read and Load64 count one access each as well.
	before := d.Stats()
	d.Read(0, make([]byte, PageSize))
	d.Load64(64)
	if s := d.Stats().Sub(before); s.ReadOps != 2 || s.ReadLines != 65 {
		t.Errorf("Read+Load64: ops=%d lines=%d, want 2, 65", s.ReadOps, s.ReadLines)
	}
}

func TestLoadWordsPanicsLikeLoad64(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	for name, fn := range map[string]func(){
		"unaligned":    func() { d.LoadWords(4, make([]uint64, 2)) },
		"past end":     func() { d.LoadWords(PageSize-8, make([]uint64, 2)) },
		"negative off": func() { d.LoadWords(-8, make([]uint64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestLoadWordsConcurrentStore64 runs bulk loads beside Store64s to the
// same lines. Every word written is one of two patterns, so a torn word
// (half of each) is detectable; under -race this also proves the copy
// synchronizes with the atomic stores.
func TestLoadWordsConcurrentStore64(t *testing.T) {
	t.Parallel()
	d := newDev(t, 1)
	const a, b = 0x1111111111111111, 0xeeeeeeeeeeeeeeee
	for off := int64(0); off < PageSize; off += 8 {
		d.Store64(off, a)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := uint64(b)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for off := int64(0); off < PageSize; off += 8 {
				d.Store64(off, v)
			}
			v ^= a ^ b
		}
	}()
	dst := make([]uint64, PageSize/8)
	for r := 0; r < 200; r++ {
		d.LoadWords(0, dst)
		for i, v := range dst {
			if v != a && v != b {
				t.Fatalf("round %d word %d torn: %#x", r, i, v)
			}
		}
	}
	close(stop)
	wg.Wait()
}
