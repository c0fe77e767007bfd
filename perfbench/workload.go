package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"denova"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// workloadSpec is one named benchmark workload: the op-trace profile it
// replays, how the load is applied, and the device it runs on.
type workloadSpec struct {
	name string
	// profile is the built-in workload profile; its Seed is replaced by
	// the run's --seed.
	profile workload.Profile
	// devSize is the simulated device capacity. It does not grow with the
	// run length: the profiles rotate or delete files, so the live set is
	// bounded and log GC keeps up.
	devSize int64
	// wire replays the trace over loopback client.Client connections to an
	// in-process server; otherwise the load calls denova.File directly.
	wire bool
	// traceRate sizes the trace: traceRate × seconds ops, about three
	// times the rate measured on a 2-vCPU host, so a faster build still has
	// ops left when the timed phase ends.
	traceRate float64
	// corpusFiles × corpusPages is the cold corpus preloaded before the
	// timed phase (files the trace never touches).
	corpusFiles, corpusPages int
}

// loadThreads is the number of load goroutines (and, over the wire,
// connections). Every workload is a closed loop: each goroutine issues its
// next op when the previous one returns. It stays at the reference host's
// 2 vCPUs whatever the host, so results use the same load shape.
const loadThreads = 2

// deviceProfile is the simulated media. The paper's performance argument
// rests on PM's read/write asymmetry, so the benchmark uses the Optane
// model rather than the serving binary's zero-latency default. Latencies
// are this simulator's, not real Optane numbers.
var deviceProfile = pmem.ProfileOptane

var workloads = []*workloadSpec{
	{
		// The multitenant fileserver mix over the wire on top of a cold
		// corpus: client, wire, admission and the op scheduler are on the
		// blocking path, and the in-run scrapes walk a large live set.
		name:        "serve",
		profile:     workload.Multitenant(0, 3),
		devSize:     256 << 20,
		traceRate:   30000,
		wire:        true,
		corpusFiles: 640,
		corpusPages: 32,
	},
	{
		// Backup ingest: duplicate-rich appends, each read back, into
		// rotating stream files. Device bytes, nova's CoW write path,
		// fingerprinting and FACT inserts/hits dominate.
		name:      "ingest",
		profile:   ingestProfile(),
		devSize:   128 << 20,
		traceRate: 75000,
	},
	{
		// Varmail: many small files created, appended and deleted, so the
		// same layers free rather than insert (reclaim, log GC, FACT
		// decref/remove, stale DWQ entries).
		name:      "churn",
		profile:   workload.Varmail(0),
		devSize:   128 << 20,
		traceRate: 200000,
	},
}

// ingestProfile is the backup-ingest profile with 64 stream files instead
// of 8: with 8, the live set left at the end of a run is a few hundred
// pages, and space_amp swung by a third between seeds with how far each
// stream had got in its rotation.
func ingestProfile() workload.Profile {
	p := workload.BackupIngest(0)
	p.FilesPerTenant = 64
	return p
}

func lookupWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want serve, ingest or churn)", name)
}

// fsConfig is the configuration denova-serve runs with: immediate offline
// dedup, default dedup worker pool, staging off.
func fsConfig(tracing denova.TraceLevel) denova.Config {
	cfg := denova.Config{Mode: denova.ModeImmediate, Tracing: tracing}
	if tracing != denova.TraceOff {
		// Large enough that the retained window holds thousands of
		// complete request span trees.
		cfg.TraceEvents = 1 << 18
	}
	return cfg
}

// op is one trace record, packed (the traces run to millions of ops).
type op struct {
	kind   workload.OpKind
	tenant uint8
	file   uint16
	vers   uint32
	off    uint32
	size   uint32
}

func (o op) key(p workload.Profile) int { return int(o.tenant)*p.FilesPerTenant + int(o.file) }

// genTrace materializes n ops of the profile's trace and partitions them
// by file over the load goroutines, which keeps per-file trace order. The
// file key is hashed first: with zipfian popularity every tenant's hottest
// file has index 0, and a plain modulus would give them all to one
// goroutine.
func genTrace(p workload.Profile, n int) [][]op {
	p.NumOps = n
	p = p.Normalized()
	parts := make([][]op, loadThreads)
	for i := range parts {
		parts[i] = make([]op, 0, n/loadThreads+n/8)
	}
	t := p.Trace()
	for {
		w, ok := t.Next()
		if !ok {
			break
		}
		o := op{
			kind: w.Kind, tenant: uint8(w.Tenant), file: uint16(w.File),
			vers: w.Vers, off: uint32(w.Off), size: uint32(w.Size),
		}
		k := int(mix64(uint64(o.key(p))) % loadThreads)
		parts[k] = append(parts[k], o)
	}
	return parts
}

// payloadGen derives op payloads with the profile's duplicate shape: each
// 4 KB chunk is a copy of a PoolSize-chunk hot pool entry with probability
// DupRatio, otherwise a chunk stamped unique by (tenant, file, version,
// index) and filled with xorshift noise. Like workload.PayloadGen it is a
// pure function of (seed, tenant, file, version), so the oracle never
// needs the generator's state; unlike it, it costs about 1 µs per chunk
// instead of seeding a math/rand source per op, which keeps generation
// small next to the ops it feeds. Payloads are synthesized by the load
// goroutine just before each call (outside the call's timing): holding a
// whole closed-loop trace's payloads would take several GB.
type payloadGen struct {
	seed uint64
	dup  uint64 // DupRatio scaled to 2^32
	pool [][]byte
}

func newPayloadGen(p workload.Profile) *payloadGen {
	p = p.Normalized()
	if p.ZipfChunks {
		panic("perfbench: zipf-skewed chunk pools are not modelled")
	}
	g := &payloadGen{seed: uint64(p.Seed), dup: uint64(p.DupRatio * (1 << 32))}
	x := mix64(g.seed ^ 0x5EED)
	for i := 0; i < p.PoolSize; i++ {
		c := make([]byte, workload.ChunkSize)
		x = mix64(x + uint64(i))
		fillNoise(c, x)
		g.pool = append(g.pool, c)
	}
	return g
}

// fill writes the payload of (tenant, file, vers) into dst.
func (g *payloadGen) fill(dst []byte, tenant, file int, vers uint32) {
	id := uint64(tenant)<<48 | uint64(file)<<24 | uint64(vers)
	x := mix64(g.seed ^ mix64(id))
	for c := 0; c*workload.ChunkSize < len(dst); c++ {
		chunk := dst[c*workload.ChunkSize : min(len(dst), (c+1)*workload.ChunkSize)]
		x = mix64(x + uint64(c))
		if x&0xFFFFFFFF < g.dup {
			copy(chunk, g.pool[(x>>32)%uint64(len(g.pool))])
			continue
		}
		if len(chunk) >= 16 {
			binary.LittleEndian.PutUint64(chunk, id)
			binary.LittleEndian.PutUint64(chunk[8:], uint64(c)+1)
			fillNoise(chunk[16:], x)
		} else {
			fillNoise(chunk, x)
		}
	}
}

// corpusTenant is the payload namespace of the preloaded corpus, disjoint
// from the profile's tenants.
const corpusTenant = 0xFF

func corpusPath(i int) string { return fmt.Sprintf("corpus/c-%05d", i) }

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillNoise fills p with an xorshift stream.
func fillNoise(p []byte, seed uint64) {
	x := seed | 1
	for len(p) >= 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p, x)
		p = p[8:]
	}
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
}

// traceLen is the number of trace ops a run of the given length needs.
func (w *workloadSpec) traceLen(seconds float64) int {
	return int(math.Ceil(w.traceRate*seconds)) + 1
}
