package graph

// A Path is a loopless vertex sequence from Path[0] to Path[len-1].
type Path []int

// Len returns the hop count (number of edges) of the path.
func (p Path) Len() int { return len(p) - 1 }

// Equal reports whether two paths visit the same vertex sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// KShortestPaths returns the first k loopless src→dst paths in (hop
// count, lexicographic vertex order) order, or nil if dst is unreachable.
// See KSPEngine for the algorithm.
//
// This one-shot form builds fresh scratch per call; callers computing
// many pairs on one graph should hold a KSPEngine (or go through
// routing.Compiled) to reuse it.
func (g *Graph) KShortestPaths(src, dst, k int) []Path {
	return NewKSPEngine(g).Paths(src, dst, k, nil)
}

// A KSPEngine computes loopless k-shortest paths with reusable flat
// scratch. Its answer is defined as the first k loopless src→dst paths in
// (hop count, lexicographic) order, and it enumerates that order directly:
// for L = dist(src,dst), dist+1, …, a depth-first search from src over
// sorted adjacency, skipping on-path vertices and pruning every step whose
// depth plus the BFS level of its head (distance to dst) exceeds L, visits
// exactly the length-L paths in lexicographic order. There is no candidate
// set, no sort and no per-path BFS. The search stops at k paths, or after
// a pass that pruned nothing, since then no longer loopless path exists.
//
// The distance bound ignores on-path blocking, so on adversarial graphs
// (a dense clique hung off src behind a cut vertex) the search is
// exponential. It is therefore capped at k·(n+2m) neighbor scans per pair;
// a pair that hits the cap is answered by Yen's ranking algorithm [Yen
// 1971] with lexicographic BFS spurs, which is exact and polynomial and
// returns the same paths. The returned paths share one caller-owned slab;
// everything else is engine scratch.
//
// An engine is bound to one graph and is NOT safe for concurrent use —
// give each worker goroutine its own (routing.Compiled does exactly
// that). Mutating the graph between calls is allowed: the scratch carries
// no cross-call state beyond Yen's epoch counter, so the next call simply
// observes the new adjacency.
type KSPEngine struct {
	g   *Graph
	csr *CSR // refreshed at the top of each Paths call

	// Enumeration scratch.
	levels []int32 // BFS levels from dst when the caller supplies none
	queue  []int32 // BFS queue, shared with Yen's spur searches
	path   []int   // the DFS path; path[d] is the vertex at depth d
	cursor []int32 // cursor[d]: next half-edge of path[d] to scan
	onPath []bool
	found  []int // emitted paths, back to back
	ends   []int // ends[i]: end of emitted path i in found

	// Yen scratch (the enumeration's guard), valid where stamp == epoch.
	epoch    uint32
	seen     []uint32
	dist     []int32
	parent   []int32
	skipNode []uint32
	// Masked neighbors of the current spur node. Every edge Yen masks is
	// p[i]→p[i+1] of a path sharing the spur root — always incident to
	// the spur node — so the mask is a handful of neighbor ids checked
	// only when the BFS expands its source.
	maskedNbrs []int32
	candidates []Path
}

// NewKSPEngine returns an engine for g. O(N) memory; cheap enough to
// build one per worker, too expensive to build one per pair.
func NewKSPEngine(g *Graph) *KSPEngine {
	return &KSPEngine{g: g}
}

func (e *KSPEngine) ensure(k int) {
	n := e.csr.N()
	if len(e.seen) < n {
		e.levels = make([]int32, n)
		e.queue = make([]int32, n)
		e.path = make([]int, n)
		e.cursor = make([]int32, n)
		e.onPath = make([]bool, n)
		e.seen = make([]uint32, n)
		e.dist = make([]int32, n)
		e.parent = make([]int32, n)
		e.skipNode = make([]uint32, n)
		e.epoch = 0
	}
	// A loopless path has at most n vertices.
	if len(e.ends) < k || len(e.found) < k*n {
		e.found = make([]int, k*n)
		e.ends = make([]int, k)
	}
}

// Paths returns the first k loopless src→dst paths in (hop count,
// lexicographic) order — the same contract, and the same bytes, as
// Graph.KShortestPaths. distTo holds the BFS levels from dst over the
// graph's current adjacency (graph.Unreachable where unreached); with
// nil the engine computes them in its own scratch.
func (e *KSPEngine) Paths(src, dst, k int, distTo []int32) []Path {
	if k <= 0 {
		return nil
	}
	// Refresh the adjacency snapshot: unmutated graphs return the cached
	// pointer, mutated ones a rebuilt snapshot — which is how "mutating
	// the graph between calls" keeps working.
	e.csr = e.g.CSR()
	e.ensure(k)
	if distTo == nil {
		distTo = e.levels
		for i := range distTo {
			distTo[i] = Unreachable
		}
		e.csr.BFSInto(int32(dst), distTo, e.queue)
	}
	if distTo[src] == Unreachable {
		return nil
	}
	if src == dst {
		return []Path{{src}}
	}
	if paths, ok := e.enumerate(src, dst, k, distTo); ok {
		return paths
	}
	return e.yen(src, dst, k)
}

// enumerate runs the distance-guided DFS for a connected pair src ≠ dst.
// It reports false, with the scratch left clean, when the pair exhausts
// its scan budget.
//
//jellyvet:hotpath
func (e *KSPEngine) enumerate(src, dst, k int, distTo []int32) ([]Path, bool) {
	c := e.csr
	n := c.N()
	budget := k * (n + 2*c.M())
	path, cursor, onPath := e.path, e.cursor, e.onPath
	count, size := 0, 0
	for L := int(distTo[src]); L < n && count < k; L++ {
		pruned := false
		path[0], cursor[0], onPath[src] = src, c.Offsets[src], true
		depth := 0
	pass:
		for depth >= 0 {
			v := path[depth]
			i := cursor[depth]
			if i == c.Offsets[v+1] {
				onPath[v] = false
				depth--
				continue
			}
			cursor[depth] = i + 1
			if budget--; budget < 0 {
				for _, w := range path[:depth+1] {
					onPath[w] = false
				}
				return nil, false
			}
			u := int(c.Nbrs[i])
			next := depth + 1
			switch {
			case onPath[u]:
			case next+int(distTo[u]) > L:
				pruned = true
			case u == dst:
				// dst is reached only at depth L: before that, the
				// path would have to pass through dst.
				if next == L {
					copy(e.found[size:], path[:next])
					size += next
					e.found[size] = dst
					size++
					e.ends[count] = size
					count++
					if count == k {
						for _, w := range path[:depth+1] {
							onPath[w] = false
						}
						break pass
					}
				}
			default:
				path[next], cursor[next], onPath[u] = u, c.Offsets[u], true
				depth = next
			}
		}
		if !pruned {
			break
		}
	}
	slab := make([]int, size)    //jellyvet:allow hotpath -- the returned paths are caller-owned by contract; one slab per pair
	paths := make([]Path, count) //jellyvet:allow hotpath -- the returned path list is caller-owned by contract; one per pair
	copy(slab, e.found[:size])
	start := 0
	for i, end := range e.ends[:count] {
		paths[i] = Path(slab[start:end:end])
		start = end
	}
	return paths, true
}
