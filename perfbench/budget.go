package main

import (
	"sort"
	"strings"

	"denova/internal/obs"
)

// span is one timed interval of a traced request: a benchmark span around
// a call into a layer, or a span the program emitted into its tracer.
type span struct {
	name  string
	trace uint64
	start int64 // unix ns
	dur   int64 // ns
	arg   uint64
}

func (s span) end() int64 { return s.start + s.dur }

// spansOf converts tracer events into spans and returns the retention
// cutoff: the ring is sharded and drops oldest-first per shard, and events
// are emitted when their span ends, so every span ending after the cutoff
// (the latest of the shards' earliest retained end times) is still held.
func spansOf(evs []obs.Event) ([]span, int64) {
	minEnd := map[uint16]int64{}
	out := make([]span, 0, len(evs))
	for _, ev := range evs {
		if ev.Trace == 0 {
			continue
		}
		s := span{name: ev.Op.String(), trace: ev.Trace, start: ev.TS, dur: ev.DurNs, arg: ev.Arg}
		if m, ok := minEnd[ev.Shard]; !ok || s.end() < m {
			minEnd[ev.Shard] = s.end()
		}
		out = append(out, s)
	}
	var cutoff int64
	for _, m := range minEnd {
		cutoff = max(cutoff, m)
	}
	return out, cutoff
}

// budget is the latency budget of one op type: the mean root span split
// into the self time of each layer span below it, plus the stated
// remainder, which is the root's own self time. Parts plus remainder
// equal the total exactly (means add; medians would not).
type budget struct {
	Op          string       `json:"op"`
	Samples     int          `json:"samples"`
	TotalUs     float64      `json:"total_us"`
	Parts       []budgetPart `json:"parts"`
	RemainderUs float64      `json:"remainder_us"`
	RemainderIs string       `json:"remainder_is"`
}

type budgetPart struct {
	Name   string  `json:"name"`
	SelfUs float64 `json:"self_us"`
}

// containTolNs absorbs clock-read ordering between a span and the spans
// nested in it.
const containTolNs = 1000

// synchronous reports whether a span can sit on a request's blocking path.
// Dedup and FACT spans are the daemon's asynchronous work: they may
// overlap a request in time without the request waiting for them.
func synchronous(name string) bool {
	return !strings.HasPrefix(name, "dedup.") && !strings.HasPrefix(name, "fact.")
}

// buildBudget splits every root span accepted by isRoot (and starting at
// or after cutoff, so its whole tree is retained) into self times. Each
// instant of the root's interval is charged to the shortest span of the
// same trace covering it: nested spans cover their parents, so a span's
// charge is its duration minus the children it covers.
func buildBudget(opName string, isRoot func(span) bool, spans []span, cutoff int64, remainderIs string) budget {
	byTrace := map[uint64][]span{}
	var roots []span
	for _, s := range spans {
		if isRoot(s) {
			if s.start >= cutoff {
				roots = append(roots, s)
			}
			continue
		}
		if synchronous(s.name) {
			byTrace[s.trace] = append(byTrace[s.trace], s)
		}
	}
	b := budget{Op: opName, Samples: len(roots), RemainderIs: remainderIs}
	if len(roots) == 0 {
		return b
	}
	self := map[string]int64{}
	var total, rootSelf int64
	for _, r := range roots {
		total += r.dur
		var members []span
		for _, s := range byTrace[r.trace] {
			if s.start >= r.start-containTolNs && s.end() <= r.end()+containTolNs {
				s.start = max(s.start, r.start)
				s.dur = min(s.end(), r.end()) - s.start
				members = append(members, s)
			}
		}
		for name, ns := range attribute(r, members) {
			if name == "" {
				rootSelf += ns
			} else {
				self[name] += ns
			}
		}
	}
	n := float64(len(roots))
	b.TotalUs = float64(total) / n / 1e3
	b.RemainderUs = float64(rootSelf) / n / 1e3
	for name, ns := range self {
		b.Parts = append(b.Parts, budgetPart{Name: name, SelfUs: float64(ns) / n / 1e3})
	}
	sort.Slice(b.Parts, func(i, j int) bool { return b.Parts[i].Name < b.Parts[j].Name })
	return b
}

// attribute charges each instant of root's interval to the shortest member
// span covering it ("" = the root itself). members are clipped to root.
func attribute(root span, members []span) map[string]int64 {
	cuts := []int64{root.start, root.end()}
	for _, s := range members {
		cuts = append(cuts, s.start, s.end())
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		owner, best := "", root.dur+1
		for _, s := range members {
			if s.start <= lo && s.end() >= hi && s.dur < best {
				owner, best = s.name, s.dur
			}
		}
		out[owner] += hi - lo
	}
	return out
}
