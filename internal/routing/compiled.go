package routing

import (
	"sort"
	"sync"

	"jellyfish/internal/graph"
	"jellyfish/internal/parallel"
	"jellyfish/internal/rng"
)

// A Compiled instance is the reusable routing state of one switch graph:
// it memoizes the pure, expensive pieces of table construction — k-shortest
// path sets per (src, dst, k), each vertex's BFS levels, and the per-source
// shortest-path counts behind ECMP sampling — so repeated table builds
// over the same topology (Table 1's three protocols × trials, a capacity
// search's trials within one probe, the planning service's repeated
// transport evaluations) stop recomputing them. One level memo serves
// both protocols: ECMP reads a source's levels, kSP a destination's.
//
// Tables built through a Compiled instance are bit-identical to the
// package-level ECMP/KShortest constructors: the memoized values are pure
// functions of (graph, key), and the ECMP sampling loop — the only
// stream-consuming part — runs the identical code over them. Reuse
// changes wall-clock, never a path set (compiled_test.go pins this).
//
// A Compiled instance is safe for concurrent use; memoized path slices
// are shared across the tables it produces and must be treated as
// read-only, which every consumer of a Table already does. It must be
// discarded if the underlying graph mutates (the incremental searches
// build one per probe).
type Compiled struct {
	g   *graph.Graph
	csr *graph.CSR // adjacency snapshot taken at NewCompiled

	mu     sync.Mutex
	ksp    map[kspKey][]graph.Path
	vertex []*vertexState // by vertex id, created on first use
}

type kspKey struct {
	src, dst, k int32
}

// vertexState is the memoized BFS state of one vertex: its levels (hop
// counts, graph.Unreachable where unreached) with the BFS visit order, and
// — built only when the vertex is an ECMP source — its shortest-path
// counts. Each part is computed once, outside the instance lock.
type vertexState struct {
	levelsOnce sync.Once
	dist       []int32
	order      []int32

	countsOnce sync.Once
	npaths     []float64
}

// NewCompiled returns an empty compiled instance for g.
func NewCompiled(g *graph.Graph) *Compiled {
	csr := g.CSR()
	return &Compiled{g: g, csr: csr, ksp: map[kspKey][]graph.Path{}, vertex: make([]*vertexState, csr.N())}
}

// Graph returns the graph this instance was compiled against.
func (c *Compiled) Graph() *graph.Graph { return c.g }

// KShortest builds the k-shortest-path table for the given pairs,
// computing only the pairs this instance has not seen before (fanned out
// over `workers` goroutines, each with its own flat-scratch KSPEngine fed
// the destination's memoized levels) and serving the rest from the memo.
// Bit-identical to the package-level KShortest.
func (c *Compiled) KShortest(pairs []Pair, k, workers int) *Table {
	t := &Table{Paths: make(map[Pair][]graph.Path, len(pairs)), Kind: kindName("ksp", k)}
	uniq := dedupPairs(pairs)

	c.mu.Lock()
	missing := make([]Pair, 0, len(uniq))
	for _, p := range uniq {
		if _, ok := c.ksp[kspKey{int32(p.Src), int32(p.Dst), int32(k)}]; !ok {
			missing = append(missing, p)
		}
	}
	c.mu.Unlock()

	if len(missing) > 0 {
		engines := make([]*graph.KSPEngine, parallel.Workers(workers))
		computed := parallel.MapWorker(workers, len(missing), func(worker, i int) []graph.Path {
			if engines[worker] == nil {
				engines[worker] = graph.NewKSPEngine(c.g)
			}
			p := missing[i]
			return engines[worker].Paths(p.Src, p.Dst, k, c.levels(p.Dst).dist)
		})
		c.mu.Lock()
		for i, p := range missing {
			c.ksp[kspKey{int32(p.Src), int32(p.Dst), int32(k)}] = computed[i]
		}
		c.mu.Unlock()
	}

	c.mu.Lock()
	for _, p := range uniq {
		t.Paths[p] = c.ksp[kspKey{int32(p.Src), int32(p.Dst), int32(k)}]
	}
	c.mu.Unlock()
	return t
}

// ECMP builds an equal-cost multipath table for the given pairs, sampling
// from src exactly like the package-level ECMP — per-source streams
// derived by source id, destinations visited in first-appearance order —
// but over memoized per-source levels and counts, so repeated builds on
// one graph pay the sampling cost only. Bit-identical to the package-level
// ECMP for the same (pairs, w, src).
func (c *Compiled) ECMP(pairs []Pair, w int, src *rng.Source, workers int) *Table {
	t := &Table{Paths: make(map[Pair][]graph.Path, len(pairs)), Kind: kindName("ecmp", w)}
	uniq := dedupPairs(pairs)
	bySrc := map[int][]int{}
	for _, p := range uniq {
		bySrc[p.Src] = append(bySrc[p.Src], p.Dst)
	}
	srcs := make([]int, 0, len(bySrc))
	for s := range bySrc { //jellyvet:allow determinism -- keys collected then sorted before any use
		srcs = append(srcs, s)
	}
	sort.Ints(srcs)
	groups := parallel.Map(workers, len(srcs), func(i int) [][]graph.Path {
		s := srcs[i]
		ssrc := src.SplitN("ecmp-src", s)
		vs := c.levels(s)
		npaths := c.counts(vs)
		out := make([][]graph.Path, len(bySrc[s]))
		for j, dst := range bySrc[s] {
			out[j] = sampleEqualCostPaths(c.csr, s, dst, vs.dist, npaths, w, ssrc)
		}
		return out
	})
	for i, s := range srcs {
		for j, dst := range bySrc[s] {
			t.Paths[Pair{s, dst}] = groups[i][j]
		}
	}
	return t
}

// levels returns v's memoized state with its levels computed.
func (c *Compiled) levels(v int) *vertexState {
	c.mu.Lock()
	vs := c.vertex[v]
	if vs == nil {
		vs = &vertexState{}
		c.vertex[v] = vs
	}
	c.mu.Unlock()
	vs.levelsOnce.Do(func() {
		n := c.csr.N()
		buf := make([]int32, 2*n)
		vs.dist = buf[:n]
		for i := range vs.dist {
			vs.dist[i] = graph.Unreachable
		}
		vs.order = c.csr.BFSInto(int32(v), vs.dist, buf[n:n])
	})
	return vs
}

// counts returns the shortest-path counts from the vertex whose levels vs
// holds, computing them on first use.
func (c *Compiled) counts(vs *vertexState) []float64 {
	vs.countsOnce.Do(func() { vs.npaths = pathCounts(c.csr, vs.dist, vs.order) })
	return vs.npaths
}
