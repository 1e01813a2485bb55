// Package routing builds the forwarding state evaluated in §5 of the paper:
// ECMP (equal-cost multi-path over shortest paths, 8- or 64-way) and
// k-shortest-path routing (the first k loopless paths in hop-count, then
// lexicographic, order), plus the per-link distinct-path counts behind
// Fig. 9's "ECMP is not enough" result.
//
// Both protocols run over one memo per topology (Compiled): each vertex's
// BFS levels are computed once and read by ECMP as a source's distances
// and by k-shortest paths as a destination's distance-to-go, the bound
// that guides graph.KSPEngine's enumeration.
package routing

import (
	"fmt"
	"slices"
	"sort"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/traffic"
)

// A Pair identifies an ordered (srcSwitch, dstSwitch) route-table entry.
type Pair struct{ Src, Dst int }

// Table maps switch pairs to their usable path sets, in deterministic
// (shortest-first) order.
type Table struct {
	Paths map[Pair][]graph.Path
	// Kind records how the table was built ("ecmp-8", "ksp-8", ...).
	Kind string
}

// PathsFor returns the path set for the given pair (nil if absent).
func (t *Table) PathsFor(src, dst int) []graph.Path {
	return t.Paths[Pair{src, dst}]
}

// KShortest builds a k-shortest-path table for the given pairs with
// graph.KSPEngine on the switch graph. The per-pair computations are
// independent and fan out over `workers` goroutines (0 = all cores); the
// table is identical for every worker count. One-shot form of
// Compiled.KShortest.
func KShortest(g *graph.Graph, pairs []Pair, k, workers int) *Table {
	return NewCompiled(g).KShortest(pairs, k, workers)
}

// ECMP builds an equal-cost multipath table: for each pair, up to w
// distinct shortest paths sampled uniformly from the shortest-path DAG —
// modeling hash-based ECMP, which spreads flows over ALL equal-cost
// next-hops rather than a lexicographically-first subset. Pass src for
// reproducible sampling.
//
// Pairs are grouped by source (one BFS serves every destination of that
// source) and the groups fan out over `workers` goroutines. Each source
// samples from its own stream, derived from src by source id — never from
// a shared stream consumed in completion order — so the table is identical
// for every worker count.
func ECMP(g *graph.Graph, pairs []Pair, w int, src *rng.Source, workers int) *Table {
	return NewCompiled(g).ECMP(pairs, w, src, workers)
}

// dedupPairs drops duplicate pairs, keeping first-appearance order.
func dedupPairs(pairs []Pair) []Pair {
	seen := make(map[Pair]bool, len(pairs))
	out := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// pathCounts computes the number of shortest paths from the BFS source to
// every vertex by DP over the BFS visit order (order[0] is the source).
// Each vertex sums its predecessors in adjacency order, so the float bits
// depend only on the levels, not on the order within a level.
func pathCounts(c *graph.CSR, dist, order []int32) []float64 {
	np := make([]float64, c.N())
	np[order[0]] = 1
	for _, v := range order[1:] {
		for _, u := range c.Neighbors(int(v)) {
			if dist[u] == dist[v]-1 {
				np[v] += np[u]
			}
		}
	}
	return np
}

// sampleEqualCostPaths draws up to w distinct uniform-random shortest
// paths from s to dst. If the DAG holds ≤ w paths they are all returned
// (enumerated exhaustively — rejection sampling could terminate early and
// silently drop paths the table contract promises); otherwise rejection
// sampling collects w distinct ones. The paths, all of one length, share
// one slab and come out in lexicographic order.
func sampleEqualCostPaths(c *graph.CSR, s, dst int, dist []int32, npaths []float64, w int, src *rng.Source) []graph.Path {
	if dist[dst] == graph.Unreachable {
		return nil
	}
	if s == dst {
		return []graph.Path{{s}}
	}
	total := npaths[dst]
	if total <= float64(w) {
		// npaths saturates only far above any practical w, so in this
		// regime the count is exact and enumeration is cheap: the DAG
		// holds at most w paths.
		return enumerateEqualCostPaths(c, s, dst, dist, int(total))
	}
	size := int(dist[dst]) + 1
	slab := make([]int, w*size)
	out := make([]graph.Path, 0, w)
	maxAttempts := 20 * w
	for attempts := 0; len(out) < w && attempts < maxAttempts; attempts++ {
		// Walk backwards from dst, choosing each predecessor u with
		// probability npaths[u]/Σ — a uniform random shortest path. The
		// draw goes into the next free slot, which a duplicate leaves
		// free.
		off := len(out) * size
		path := graph.Path(slab[off : off+size : off+size])
		path[size-1] = dst
		v := dst
		for i := size - 2; i >= 0; i-- {
			var sum float64
			for _, u := range c.Neighbors(v) {
				if dist[u] == dist[v]-1 {
					sum += npaths[u]
				}
			}
			x := src.Float64() * sum
			next := -1
			for _, u := range c.Neighbors(v) {
				if dist[u] == dist[v]-1 {
					x -= npaths[u]
					next = int(u)
					if x <= 0 {
						break
					}
				}
			}
			v = next
			path[i] = v
		}
		if !slices.ContainsFunc(out, path.Equal) {
			out = append(out, path)
		}
	}
	slices.SortFunc(out, slices.Compare[graph.Path])
	return out
}

// enumerateEqualCostPaths returns all count shortest s→dst paths, in
// lexicographic order, by walking the shortest-path DAG backwards from dst
// (predecessors of v are the neighbors one BFS level closer to s). The
// paths share one slab.
func enumerateEqualCostPaths(c *graph.CSR, s, dst int, dist []int32, count int) []graph.Path {
	size := int(dist[dst]) + 1
	slab := make([]int, count*size)
	out := make([]graph.Path, 0, count)
	stack := make(graph.Path, size)
	stack[size-1] = dst
	var walk func(v, i int)
	walk = func(v, i int) {
		if v == s {
			off := len(out) * size
			p := graph.Path(slab[off : off+size : off+size])
			copy(p, stack)
			out = append(out, p)
			return
		}
		for _, u := range c.Neighbors(v) {
			if dist[u] == dist[v]-1 {
				stack[i-1] = int(u)
				walk(int(u), i-1)
			}
		}
	}
	walk(dst, size-1)
	slices.SortFunc(out, slices.Compare[graph.Path])
	return out
}

// LinkLoad counts, for every directed link, the number of distinct table
// paths that traverse it — the y-axis of Fig. 9. Each cable counts as two
// links, one per direction; links on no path are included with count 0.
func LinkLoad(g *graph.Graph, t *Table) map[[2]int]int {
	counts := make(map[[2]int]int, 2*g.M())
	for _, e := range g.Edges() {
		counts[[2]int{e.U, e.V}] = 0
		counts[[2]int{e.V, e.U}] = 0
	}
	//jellyvet:allow determinism -- additive count reduction; increments commute across iteration order
	for _, paths := range t.Paths {
		for _, p := range paths {
			for i := 0; i+1 < len(p); i++ {
				counts[[2]int{p[i], p[i+1]}]++
			}
		}
	}
	return counts
}

// RankedLinkLoads returns the per-directed-link path counts sorted
// ascending (the rank-plot series of Fig. 9).
func RankedLinkLoads(g *graph.Graph, t *Table) []int {
	counts := LinkLoad(g, t)
	out := make([]int, 0, len(counts))
	for _, c := range counts { //jellyvet:allow determinism -- values collected then sorted before any use
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// PairsForPattern extracts the route-table pairs a traffic pattern needs:
// the distinct (srcSwitch, dstSwitch) pairs of its flows, same-switch
// flows dropped. The single definition of "which pairs a pattern routes",
// shared by the experiment harness and the planning service.
func PairsForPattern(pat *traffic.Pattern) []Pair {
	sd := make([][2]int, 0, len(pat.Flows))
	for _, f := range pat.Flows {
		sd = append(sd, [2]int{f.SrcSwitch, f.DstSwitch})
	}
	return PairsForCommodities(sd)
}

// PairsForCommodities extracts the distinct switch pairs (src != dst) from
// server-level flow endpoints.
func PairsForCommodities(srcDst [][2]int) []Pair {
	seen := map[Pair]bool{}
	var out []Pair
	for _, sd := range srcDst {
		if sd[0] == sd[1] {
			continue
		}
		p := Pair{sd[0], sd[1]}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func kindName(base string, n int) string {
	return fmt.Sprintf("%s-%d", base, n)
}
