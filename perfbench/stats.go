package main

import (
	"math"
	"math/bits"
	"sort"

	"denova/internal/obs"
)

// pct is a latency percentile with the sample count behind it.
type pct struct {
	Q       float64 `json:"q"` // the percentile actually reported (the lowest over the windows)
	N       int     `json:"n"` // samples
	Windows int     `json:"windows,omitempty"`
	Value   float64 `json:"-"` // µs
}

// percentile returns the q-th percentile of ns samples in µs (nearest
// rank), lowered to the highest percentile that still has at least ten
// samples beyond it, so a tail figure is never read off a handful of ops.
func percentile(ns []int64, q float64) pct {
	n := len(ns)
	if n == 0 {
		return pct{Q: q}
	}
	if n < 20 {
		q = 0.5
	} else if beyond := float64(n) * (1 - q); beyond < 10 {
		q = 1 - 10/float64(n)
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return pct{Q: q, N: n, Value: float64(s[i]) / 1e3}
}

// windowedPercentile is the median over the seconds of the timed phase of
// each second's q-th percentile of class c. A host hiccup of a few hundred
// milliseconds then moves one window rather than the whole run's tail.
func windowedPercentile(workers []*worker, c int, q float64) pct {
	out := pct{Q: q}
	var vals []float64
	for win := 0; ; win++ {
		var samples [][]int64
		for _, w := range workers {
			if win < len(w.lat[c]) {
				samples = append(samples, w.lat[c][win])
			}
		}
		if len(samples) == 0 {
			break
		}
		all := concat(samples...)
		if len(all) == 0 {
			continue
		}
		v := percentile(all, q)
		out.Q = min(out.Q, v.Q)
		out.N += v.N
		vals = append(vals, v.Value)
	}
	out.Windows = len(vals)
	out.Value = median(vals)
	return out
}

func concat(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var s int64
	for _, v := range ns {
		s += v
	}
	return float64(s) / float64(len(ns))
}

// histDelta is the part of an obs histogram recorded between two metrics
// snapshots: the timed phase alone, without set-up traffic.
type histDelta struct {
	counts map[int64]int64 // bucket upper bound (ns) -> count
	count  int64
	sumNs  int64
}

func deltaOf(before, after obs.Snapshot, name string) histDelta {
	d := histDelta{counts: map[int64]int64{}}
	for _, b := range after.Buckets[name] {
		d.counts[b.UpperNs] += b.Count
	}
	for _, b := range before.Buckets[name] {
		d.counts[b.UpperNs] -= b.Count
	}
	d.count = after.Histograms[name].Count - before.Histograms[name].Count
	d.sumNs = after.Histograms[name].SumNs - before.Histograms[name].SumNs
	return d
}

// meanUs is the mean observation in µs (0 when empty).
func (d histDelta) meanUs() float64 {
	if d.count <= 0 {
		return 0
	}
	return float64(d.sumNs) / float64(d.count) / 1e3
}

// quantileUs estimates the q-th quantile in µs, interpolating linearly
// inside the bucket as obs.Histogram.Quantile does.
func (d histDelta) quantileUs(q float64) float64 {
	var total int64
	uppers := make([]int64, 0, len(d.counts))
	for u, c := range d.counts {
		if c > 0 {
			uppers = append(uppers, u)
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(uppers, func(i, j int) bool { return uppers[i] < uppers[j] })
	target := max(1, min(total, int64(q*float64(total)+0.5)))
	var cum int64
	for _, u := range uppers {
		c := d.counts[u]
		if cum+c >= target {
			lo := bucketLowerOf(u)
			return (float64(lo) + float64(u-lo)*float64(target-cum)/float64(c)) / 1e3
		}
		cum += c
	}
	return float64(uppers[len(uppers)-1]) / 1e3
}

// bucketLowerOf returns the lower bound of the obs histogram bucket whose
// exclusive upper bound is upper: exact buckets below 8 ns, then four
// sub-buckets per power-of-two octave.
func bucketLowerOf(upper int64) int64 {
	if upper <= 8 {
		return upper - 1
	}
	msb := bits.Len64(uint64(upper-1)) - 1
	width := int64(1) << (msb - 2)
	return upper - width
}
