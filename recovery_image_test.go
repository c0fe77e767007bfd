package denova

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"denova/internal/pmem"
)

// The post-mount image pins. Each case builds a deterministic image (one
// writer, fixed seed, and either inline dedup or a single DWQ-fed file, so
// the FACT contents do not depend on DWQ shard count or scheduling),
// mounts it, and compares the SHA-256 of the whole device plus the
// recovery counters against values recorded before the recovery sweeps
// were rewritten to read PM in bulk. Any change to what recovery writes —
// or to what it finds — shows up here, at every worker count.

const pinDevSize = 32 << 20

// pinPage returns the 4 KB content of pool page id: distinct ids give
// distinct fingerprints, repeated ids give duplicates.
func pinPage(id int) []byte {
	p := make([]byte, 4096)
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], uint64(id)*0x9e3779b97f4a7c15^uint64(i))
	}
	return p
}

// pinOps runs a seeded create/write/remove/truncate stream. Page contents
// come from a 600-page pool, so there are duplicates to deduplicate and
// enough distinct fingerprints to form IAA chains.
func pinOps(fs *FS, seed int64, count int) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("f%02d", rng.Intn(24))
		switch k := rng.Intn(10); {
		case k < 7:
			f, err := fs.Open(name)
			if err == ErrNotFound {
				f, err = fs.Create(name)
			}
			if err != nil {
				return err
			}
			n := 1 + rng.Intn(4)
			var data []byte
			for j := 0; j < n; j++ {
				data = append(data, pinPage(rng.Intn(600))...)
			}
			if _, err := f.WriteAt(data, int64(rng.Intn(8))*4096); err != nil {
				return err
			}
		case k < 9:
			if err := fs.Remove(name); err != nil && err != ErrNotFound {
				return err
			}
		default:
			f, err := fs.Open(name)
			if err == ErrNotFound {
				continue
			}
			if err != nil {
				return err
			}
			if err := f.Truncate(int64(rng.Intn(6)) * 4096); err != nil {
				return err
			}
		}
	}
	return nil
}

// deviceDigest hashes the device's full contents.
func deviceDigest(dev *Device) string {
	h := sha256.New()
	buf := make([]byte, 1<<20)
	for off := int64(0); off < dev.Size(); off += int64(len(buf)) {
		dev.Read(off, buf)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recoveryCounts renders what a mount found and repaired.
func recoveryCounts(info *RecoveryInfo) string {
	d := info.Dedup
	return fmt.Sprintf("clean=%v orphans=%d repairs=%d dentryCorrupt=%d gcPages=%d resumed=%d requeued=%d snapshot=%v scrubDropped=%d fact=%+v",
		info.Clean, len(info.Orphans), info.RepairsPersisted, info.DentryCorrupt, info.GCPages,
		d.Resumed, d.Requeued, d.RestoredFromSnapshot, d.ScrubDropped, d.Fact)
}

// pinSingleFile writes one file through the DWQ and drains it. One file
// means one DWQ shard, so the drain order is the same on every host.
func pinSingleFile(fs *FS) error {
	rng := rand.New(rand.NewSource(11))
	f, err := fs.Create("big")
	if err != nil {
		return err
	}
	for i := 0; i < 120; i++ {
		n := 1 + rng.Intn(4)
		var data []byte
		for j := 0; j < n; j++ {
			data = append(data, pinPage(rng.Intn(300))...)
		}
		if _, err := f.WriteAt(data, int64(rng.Intn(64))*4096); err != nil {
			return err
		}
		if i%40 == 39 {
			fs.Sync()
		}
	}
	fs.Sync()
	return nil
}

type pinCase struct {
	name   string
	cfg    Config
	ops    func(*FS) error
	crash  float64 // cut the op stream at this fraction of its persist points; 0 = run it all
	clean  bool    // unmount cleanly instead of pulling the plug
	digest string
	counts string
}

// image builds the case's pre-mount image.
func (c pinCase) image(t *testing.T) *Device {
	t.Helper()
	dev := NewDevice(pinDevSize, ProfileZero)
	fs, err := Mkfs(dev, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.crash > 0 {
		// Probe the persist-op budget on a twin, then cut the real run.
		probe := NewDevice(pinDevSize, ProfileZero)
		pfs, err := Mkfs(probe, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := probe.PersistOps()
		if err := c.ops(pfs); err != nil {
			t.Fatal(err)
		}
		dev.SetCrashAfter(int64(c.crash * float64(probe.PersistOps()-base)))
		if !pmem.RunToCrash(func() { _ = c.ops(fs) }) {
			t.Fatal("crash point never reached")
		}
		return dev.CrashImage(pmem.CrashDropDirty, 0)
	}
	if err := c.ops(fs); err != nil {
		t.Fatal(err)
	}
	if c.clean {
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	fs.UnmountDirty()
	return dev.CrashImage(pmem.CrashDropDirty, 0)
}

func TestRecoveryImagePinned(t *testing.T) {
	// The allocator shards its free lists by GOMAXPROCS, so block placement
	// (and with it every digest) is pinned at two procs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	inline := Config{Mode: ModeInline, NoDaemon: true}
	immediate := Config{Mode: ModeImmediate, NoDaemon: true, DisableReorder: true}
	stream := func(fs *FS) error { return pinOps(fs, 7, 400) }
	cases := []pinCase{
		{name: "inline/clean", cfg: inline, ops: stream, clean: true,
			digest: "45bb14401d3e0f7151810354da6b6ce7924593c12f5fdef057f68a35fe85b72c",
			counts: "clean=true orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:0 EntriesDropped:0}"},
		{name: "inline/dirty", cfg: inline, ops: stream,
			digest: "9bc40dd645af925576e94bc727ab5944c78760a6dc5e8d611bb2cce3d5f66fec",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:0 EntriesDropped:0}"},
		{name: "inline/crash-0.2", cfg: inline, ops: stream, crash: 0.2,
			digest: "73c5ea294d414da9f454f09c64e418eb6e37c06ebd52fde7d1bbd39704af68ce",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=5 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:0 EntriesDropped:0}"},
		{name: "inline/crash-0.45", cfg: inline, ops: stream, crash: 0.45,
			digest: "eeb7570ad847e5b5fcb11d68706f9d52f57486fba09c93ed501f53995905fbc2",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:3 EntriesDropped:3}"},
		{name: "inline/crash-0.7", cfg: inline, ops: stream, crash: 0.7,
			digest: "adcb155a81a4211c6564a54f6bccde253bbc2a69f777f179c67c9d2cb00e3e3c",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:4 EntriesDropped:4}"},
		{name: "inline/crash-0.9", cfg: inline, ops: stream, crash: 0.9,
			digest: "b29c72e231e2a7b03afea87c6e090881cbec890a52fa7697f8c81de18fad9f84",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:1 EntriesDropped:1}"},
		{name: "immediate/dirty", cfg: immediate, ops: pinSingleFile,
			digest: "e715bd2f84c6f5e6e658c56cb86ef22feb3fd35ab63000eacc3f26f3df2fc405",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=0 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:0 EntriesDropped:0}"},
		{name: "immediate/crash-0.32", cfg: immediate, ops: pinSingleFile, crash: 0.32,
			digest: "b437fc945badbf6fedd372e631d1b9d2216495240089d01542107c394b826d50",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=36 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:1 UCsDiscarded:2 EntriesDropped:2}"},
		{name: "immediate/crash-0.33", cfg: immediate, ops: pinSingleFile, crash: 0.33,
			digest: "367768fe4078b05ba5e7f6f559372d8f3c54aa1609f57c1792911fb3cf13b3c3",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=2 requeued=8 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:0 UCsDiscarded:0 EntriesDropped:0}"},
		{name: "immediate/crash-0.63", cfg: immediate, ops: pinSingleFile, crash: 0.63,
			digest: "4cfe2ffa3cca9863e32aa1f52e274dd1a613e4601a042e06bbd11b7f968ffe0d",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=35 snapshot=false scrubDropped=2 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:1 UCsDiscarded:0 EntriesDropped:0}"},
		{name: "immediate/crash-0.68", cfg: immediate, ops: pinSingleFile, crash: 0.68,
			digest: "b2aed736013e7a8def2f4b6f368dcd6713a20c5ca65f14dbcd3ddd428e4ccb13",
			counts: "clean=false orphans=0 repairs=0 dentryCorrupt=0 gcPages=0 resumed=0 requeued=14 snapshot=false scrubDropped=0 fact={ReordersResumed:0 PrevsFixed:0 OrphansCleared:0 GhostsUnlinked:0 DelPtrsFixed:1 UCsDiscarded:2 EntriesDropped:2}"},
	}
	for _, c := range cases {
		img := c.image(t)
		for _, workers := range []int{1, 4} {
			dev := img.Clone()
			cfg := c.cfg
			cfg.Workers = workers
			fs, info, err := Mount(dev, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: mount: %v", c.name, workers, err)
			}
			fs.UnmountDirty()
			digest, counts := deviceDigest(dev), recoveryCounts(info)
			if digest != c.digest {
				t.Errorf("%s workers=%d: post-mount image %s, pinned %s", c.name, workers, digest, c.digest)
			}
			if counts != c.counts {
				t.Errorf("%s workers=%d: recovery counts\n got  %s\n want %s", c.name, workers, counts, c.counts)
			}
		}
	}
}
