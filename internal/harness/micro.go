package harness

import (
	"sort"
	"time"

	"denova"
	"denova/internal/dedup"
	"denova/internal/fact"
	"denova/internal/pmem"
	"denova/internal/workload"
)

// denovaMkfsDelayedHold builds an FS whose daemon never fires on its own,
// so foreground and background phases can be timed separately.
func denovaMkfsDelayedHold(dev *pmem.Device) (*denova.FS, error) {
	return denova.Mkfs(dev, denova.Config{
		Mode:          denova.ModeDelayed,
		DelayInterval: time.Hour,
		DelayBatch:    1 << 30,
	})
}

// Microbenchmarks backing Fig. 2, Table IV and the Eq. (1)–(5) model
// validation: they time the two sides of the paper's central inequality —
// the media write time T_w against the fingerprinting-and-lookup time T_f —
// in isolation, on the same simulated device the macro experiments use.

// TfTwResult is one Fig. 2 bar: for a given write size, the time spent
// writing to the device vs the time spent on chunking + fingerprinting +
// duplicate lookup.
type TfTwResult struct {
	WriteSize int
	Tw        time.Duration // media write time for the payload
	Tf        time.Duration // chunk + SHA-1 + FACT lookup for the payload
	Tfw       time.Duration // weak-fingerprint variant of Tf (Eq. 4)
}

// TfShare is Tf / (Tf + Tw), the proportion Fig. 2 plots.
func (r TfTwResult) TfShare() float64 {
	total := r.Tf + r.Tw
	if total == 0 {
		return 0
	}
	return float64(r.Tf) / float64(total)
}

// MeasureTfTw times T_w and T_f for each write size over iters repetitions.
func MeasureTfTw(sizes []int, iters int, prof pmem.LatencyProfile) []TfTwResult {
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	devSize := int64(maxSize)*4 + (16 << 20)
	dev := pmem.New(devSize, prof)
	table := fact.New(dev, fact.Config{Base: 0, PrefixBits: 14, DataStart: uint64(1 << 14), NumData: 1 << 14})
	table.ZeroFill()
	gen := workload.NewGenerator(workload.Spec{Name: "micro", FileSize: maxSize, NumFiles: iters, DupRatio: 0.25, Seed: 11, PoolSize: 32})

	out := make([]TfTwResult, 0, len(sizes))
	dataOff := devSize / 2
	// Device-side times (T_w, and the NVM-lookup component of T_f) come
	// from the device's deterministic simulated-latency accounting rather
	// than wall time: on hosts with very few cores, the yielding spin-waits
	// overshoot at microsecond scale and would report scheduler noise. The
	// CPU-side SHA-1/CRC work is real computation and is measured by wall
	// clock, reported as the per-iteration median so that one preemption
	// inside a short run cannot swing the mean.
	for _, size := range sizes {
		var twSim, lookupSim int64
		hashWall := make([]time.Duration, 0, iters)
		weakWall := make([]time.Duration, 0, iters)
		for it := 0; it < iters; it++ {
			data := gen.FileData(it)[:size]
			// T_w: the non-temporal store of the payload.
			before := dev.Stats().SimLatencyNs
			dev.WriteNT(dataOff, data)
			twSim += dev.Stats().SimLatencyNs - before
			// T_f part 1: SHA-1 over every 4 KB chunk (wall time).
			start := time.Now()
			fps := make([]fact.FP, 0, size/dedup.ChunkSize+1)
			for c := 0; c < size; c += dedup.ChunkSize {
				end := c + dedup.ChunkSize
				if end > size {
					end = size
				}
				fps = append(fps, dedup.Strong(data[c:end]))
			}
			hashWall = append(hashWall, time.Since(start))
			// T_f part 2: duplicate lookup (simulated NVM time).
			before = dev.Stats().SimLatencyNs
			for _, fp := range fps {
				table.Lookup(fp)
			}
			lookupSim += dev.Stats().SimLatencyNs - before
			// T_fw: the weak-fingerprint pipeline (wall time).
			start = time.Now()
			for c := 0; c < size; c += dedup.ChunkSize {
				end := c + dedup.ChunkSize
				if end > size {
					end = size
				}
				dedup.Weak(data[c:end])
			}
			weakWall = append(weakWall, time.Since(start))
		}
		n := time.Duration(iters)
		out = append(out, TfTwResult{
			WriteSize: size,
			Tw:        time.Duration(twSim) / n,
			Tf:        medianDuration(hashWall) + time.Duration(lookupSim)/n,
			Tfw:       medianDuration(weakWall),
		})
	}
	return out
}

// LatencyBreakdown is one Table IV row: file write latency vs the
// deduplication latency split into fingerprinting and everything else
// (chunking, FACT lookup, log append, counts).
type LatencyBreakdown struct {
	FileSize     int
	WriteLatency time.Duration // foreground write (create excluded)
	FPTime       time.Duration // SHA-1 share of the dedup transaction
	OtherOps     time.Duration // remaining dedup work
}

// DedupeLatency is the full background transaction cost.
func (l LatencyBreakdown) DedupeLatency() time.Duration { return l.FPTime + l.OtherOps }

// MeasureLatencyBreakdown reproduces Table IV for the given file size.
func MeasureLatencyBreakdown(fileSize, files int, prof pmem.LatencyProfile) (LatencyBreakdown, error) {
	spec := workload.Spec{Name: "tbl4", FileSize: fileSize, NumFiles: files, DupRatio: 0.5, Seed: 3}
	opts := WriteOptions{Profile: prof}
	opts.fill(spec)
	dev := pmem.New(opts.DevSize, prof)
	fs, err := denovaMkfsDelayedHold(dev)
	if err != nil {
		return LatencyBreakdown{}, err
	}
	defer fs.Unmount()
	gen := workload.NewGenerator(spec)

	// Phase 1: timed foreground writes (dedup daemon held off). Per-file
	// latencies are reduced with the median: the yielding spin-waits can
	// overshoot on busy few-core hosts, and a handful of outliers must not
	// masquerade as write-path cost.
	writeSamples := make([]time.Duration, files)
	for i := 0; i < files; i++ {
		data := gen.FileData(i)
		f, err := fs.Create(gen.FileName(i))
		if err != nil {
			return LatencyBreakdown{}, err
		}
		start := time.Now()
		if _, err := f.WriteAt(data, 0); err != nil {
			return LatencyBreakdown{}, err
		}
		writeSamples[i] = time.Since(start)
	}

	// Phase 2: measure the fingerprinting share separately (same data),
	// then the full drain; OtherOps = drain/file - FP median.
	fpSamples := make([]time.Duration, files)
	var fpTotal time.Duration
	for i := 0; i < files; i++ {
		data := gen.FileData(i)
		start := time.Now()
		for c := 0; c < len(data); c += dedup.ChunkSize {
			end := c + dedup.ChunkSize
			if end > len(data) {
				end = len(data)
			}
			dedup.Strong(data[c:end])
		}
		fpSamples[i] = time.Since(start)
		fpTotal += fpSamples[i]
	}
	start := time.Now()
	fs.Sync()
	dedupTotal := time.Since(start)
	other := (dedupTotal - fpTotal) / time.Duration(files)
	if other < 0 {
		other = 0
	}
	return LatencyBreakdown{
		FileSize:     fileSize,
		WriteLatency: medianDuration(writeSamples),
		FPTime:       medianDuration(fpSamples),
		OtherOps:     other,
	}, nil
}

// medianDuration returns the median of samples (which it sorts in place).
func medianDuration(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// ModelValidation evaluates the Eq. (1)–(5) inequalities with measured
// quantities at a given duplicate ratio α.
type ModelValidation struct {
	Alpha   float64
	Tw      time.Duration // per-4KB media write time
	Tf      time.Duration // per-4KB strong fingerprint + lookup
	Tfw     time.Duration // per-4KB weak fingerprint
	LHS     time.Duration // α·T_w              (Eq. 3 left side)
	RHS     time.Duration // T_f                (Eq. 3 right side)
	AdapRHS time.Duration // T_fw + α·T_f       (Eq. 5 right side)
}

// Eq3Holds reports whether α·T_w < T_f — inline dedup cannot win.
func (m ModelValidation) Eq3Holds() bool { return m.LHS < m.RHS }

// Eq5Holds reports whether α·T_w < T_fw + α·T_f — adaptive fingerprinting
// cannot win either.
func (m ModelValidation) Eq5Holds() bool { return m.LHS < m.AdapRHS }

// ValidateModel measures the per-chunk quantities and instantiates the
// model for each α.
func ValidateModel(alphas []float64, iters int, prof pmem.LatencyProfile) []ModelValidation {
	res := MeasureTfTw([]int{dedup.ChunkSize}, iters, prof)[0]
	out := make([]ModelValidation, 0, len(alphas))
	for _, a := range alphas {
		out = append(out, ModelValidation{
			Alpha:   a,
			Tw:      res.Tw,
			Tf:      res.Tf,
			Tfw:     res.Tfw,
			LHS:     time.Duration(a * float64(res.Tw)),
			RHS:     res.Tf,
			AdapRHS: res.Tfw + time.Duration(a*float64(res.Tf)),
		})
	}
	return out
}

// DeviceProfileRow is one Table I row.
type DeviceProfileRow struct {
	Profile pmem.LatencyProfile
	// MeasuredRead and MeasuredWrite are per-cache-line times observed on
	// the simulated device (validating the injection machinery).
	MeasuredRead  time.Duration
	MeasuredWrite time.Duration
}

// MeasureDeviceProfiles validates Table I: for each canonical profile,
// measure the realized per-line read and persist latency.
func MeasureDeviceProfiles(iters int) []DeviceProfileRow {
	profiles := []pmem.LatencyProfile{pmem.ProfileDRAM, pmem.ProfilePCM, pmem.ProfileSTTRAM, pmem.ProfileOptane}
	out := make([]DeviceProfileRow, 0, len(profiles))
	buf := make([]byte, pmem.CacheLineSize)
	for _, p := range profiles {
		dev := pmem.New(1<<20, p)
		start := time.Now()
		for i := 0; i < iters; i++ {
			dev.Read(0, buf)
		}
		readPer := time.Since(start) / time.Duration(iters)
		start = time.Now()
		for i := 0; i < iters; i++ {
			dev.Write(0, buf)
			dev.Persist(0, len(buf))
		}
		writePer := time.Since(start) / time.Duration(iters)
		out = append(out, DeviceProfileRow{Profile: p, MeasuredRead: readPer, MeasuredWrite: writePer})
	}
	return out
}
