package denova

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"denova/internal/dedup"
	"denova/internal/fact"
)

// FACT entry word offsets (see internal/fact/fact.go's layout note).
const (
	factBlockWord = 8
	factNextWord  = 24
)

// corruptibleImage formats a small inline-dedup file system holding two
// copies of one page, unmounts it cleanly, and returns the device, the
// file content, the FACT region offset and the DAA index of the page's
// entry.
func corruptibleImage(t *testing.T) (dev *Device, data []byte, factOff int64, idx uint64) {
	t.Helper()
	dev = NewDevice(16<<20, ProfileZero)
	fs, err := Mkfs(dev, Config{Mode: ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	data = npages(42)
	writeAll(t, fs, "a", data)
	writeAll(t, fs, "b", data)
	factOff = fs.fs.Geo.FactOff
	idx, _, found := fs.table.Lookup(dedup.Strong(data))
	if !found {
		t.Fatal("duplicate page has no FACT entry")
	}
	if next := fs.table.EntryAt(idx).Next; next != fact.None {
		t.Fatalf("entry %d unexpectedly chained to %d", idx, next)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	return dev, data, factOff, idx
}

// TestMountTruncatesWildChainPointer: a chain link of 2^63 or more used to
// pass the range check as a negative number and panic inside a recovery
// worker. Recovery must truncate the chain there instead.
func TestMountTruncatesWildChainPointer(t *testing.T) {
	dev, data, factOff, idx := corruptibleImage(t)
	dev.PersistStore64(factOff+int64(idx)*fact.EntrySize+factNextWord, 1<<63|1<<40)

	fs, _, err := Mount(dev, Config{Mode: ModeInline})
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	defer fs.Unmount()
	if next := fs.table.EntryAt(idx).Next; next != fact.None {
		t.Fatalf("wild next pointer survived recovery: %#x", next)
	}
	if err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readAll(t, f), data) {
			t.Fatalf("%s changed by recovery", name)
		}
	}
}

// TestMountRejectsEntryBlockOutsideData: an occupied FACT entry naming a
// block outside the data region used to panic in a recovery worker. Mount
// must return ErrCorrupt naming the entry.
func TestMountRejectsEntryBlockOutsideData(t *testing.T) {
	dev, _, factOff, idx := corruptibleImage(t)
	dev.PersistStore64(factOff+int64(idx)*fact.EntrySize+factBlockWord, 3) // a metadata block

	_, _, err := Mount(dev, Config{Mode: ModeInline})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mount error = %v, want ErrCorrupt", err)
	}
	if want := fmt.Sprintf("entry %d ", idx); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}
