package main

import (
	"fmt"
	"io"
	"sort"

	"harvsim/internal/wire"
)

// spanTree indexes a set of span lines (service-side spans fetched from
// a trace endpoint or copied out of a batch recorder, plus the
// benchmark's own client-side spans) by id and parent.
type spanTree struct {
	spans    []wire.SpanLine
	byID     map[string]int
	children map[string][]int
}

func newSpanTree(spans []wire.SpanLine) *spanTree {
	t := &spanTree{spans: spans, byID: make(map[string]int, len(spans)), children: make(map[string][]int)}
	for i, s := range spans {
		t.byID[s.ID] = i
	}
	for i, s := range spans {
		if s.Parent != "" {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// self returns a span's duration minus the part of its interval that
// its child spans cover, in microseconds.
func (t *spanTree) self(i int) int64 {
	s := t.spans[i]
	lo, hi := s.StartUS, s.StartUS+s.DurUS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range t.children[s.ID] {
		cs := t.spans[c]
		a, b := max(cs.StartUS, lo), min(cs.StartUS+cs.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.DurUS - covered
}

// parentName names a span's parent ("" for a root or an unknown parent).
func (t *spanTree) parentName(i int) string {
	if p, ok := t.byID[t.spans[i].Parent]; ok {
		return t.spans[p].Name
	}
	return ""
}

// layer is a span name qualified by where it sits: the coordinator's
// root sweep and a worker's root sweep share the name "sweep", so roots
// under a shard span are labelled "worker-sweep".
func (t *spanTree) layer(i int) string {
	s := t.spans[i]
	if s.Name == "sweep" && t.parentName(i) == "shard" {
		return "worker-sweep"
	}
	if s.Name == "expand" && t.parentName(i) == "sweep" {
		if p := t.byID[s.Parent]; t.parentName(p) == "shard" {
			return "worker-expand"
		}
	}
	return s.Name
}

// durs collects the durations (µs) of the spans of one layer.
func (t *spanTree) durs(layer string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.layer(i) == layer {
			out = append(out, float64(t.spans[i].DurUS))
		}
	}
	return out
}

// selfs collects the self times (µs) of the spans of one layer.
func (t *spanTree) selfs(layer string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.layer(i) == layer {
			out = append(out, float64(t.self(i)))
		}
	}
	return out
}

// transport returns, for every server sweep, the caller-visible time
// (the client request span or the coordinator's shard span that is the
// sweep root's parent) minus the sweep's exec span, in µs.
func (t *spanTree) transport() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name != "exec" {
			continue
		}
		root, ok := t.byID[s.Parent]
		if !ok {
			continue
		}
		caller, ok := t.byID[t.spans[root].Parent]
		if !ok {
			continue
		}
		out = append(out, float64(t.spans[caller].DurUS-s.DurUS))
	}
	return out
}

// merge returns, for every coordinated request, the client-visible time
// minus its slowest shard span, in µs.
func (t *spanTree) merge() []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name != "request" {
			continue
		}
		for _, r := range t.children[s.ID] {
			var slowest int64 = -1
			for _, c := range t.children[t.spans[r].ID] {
				if t.spans[c].Name == "shard" {
					slowest = max(slowest, t.spans[c].DurUS)
				}
			}
			if slowest >= 0 {
				out = append(out, float64(t.spans[i].DurUS-slowest))
			}
		}
	}
	return out
}

// root returns the root of a span's tree and the span's depth in it.
func (t *spanTree) root(i int) (r, depth int) {
	r = i
	for p, ok := t.byID[t.spans[r].Parent]; ok && depth < len(t.spans); p, ok = t.byID[t.spans[r].Parent] {
		r = p
		depth++
	}
	return r, depth
}

// blocking splits each root span's wall time among the layers on its
// blocking path: every instant goes to the deepest span active at that
// instant (of parallel spans at one depth, the first recorded). It
// returns the time per layer in µs, summed over the roots, so the layers
// of one root add up to its duration.
func (t *spanTree) blocking() map[string]float64 {
	depth := make([]int, len(t.spans))
	trees := map[int][]int{}
	for i := range t.spans {
		r, d := t.root(i)
		depth[i] = d
		trees[r] = append(trees[r], i)
	}
	out := map[string]float64{}
	for _, members := range trees {
		cuts := make([]int64, 0, 2*len(members))
		for _, i := range members {
			cuts = append(cuts, t.spans[i].StartUS, t.spans[i].StartUS+t.spans[i].DurUS)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if b == a {
				continue
			}
			best := -1
			for _, i := range members {
				s := t.spans[i]
				if s.StartUS <= a && s.StartUS+s.DurUS >= b && (best < 0 || depth[i] > depth[best]) {
					best = i
				}
			}
			if best >= 0 {
				out[t.layer(best)] += float64(b - a)
			}
		}
	}
	return out
}

// attribution prints, per layer, the time each operation spends blocked
// in it (see blocking) and its share of the operation's time.
func (t *spanTree) attribution(w io.Writer, title string, ops int, opUS float64) {
	counts := map[string]int{}
	for i := range t.spans {
		counts[t.layer(i)]++
	}
	block := t.blocking()
	order := []string{"cycle", "request", "run", "sweep", "expand", "queue", "shard", "worker-sweep",
		"worker-expand", "exec", "job", "probe", "march", "factor", "stability"}
	fmt.Fprintf(w, "# attribution: %s (%d operations, %.3f ms each; time on the blocking path)\n", title, ops, opUS/1e3)
	fmt.Fprintf(w, "#   %-14s %8s %14s %8s\n", "layer", "spans", "ms/op", "share")
	for _, l := range order {
		if counts[l] == 0 {
			continue
		}
		per := block[l] / float64(max(ops, 1))
		fmt.Fprintf(w, "#   %-14s %8d %14.4f %7.1f%%\n", l, counts[l], per/1e3, 100*per/opUS)
	}
}
