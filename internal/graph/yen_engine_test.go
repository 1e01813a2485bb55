package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// kShortestPathsReference is the pre-engine one-shot implementation
// (per-call maps and slices), kept verbatim as the oracle for the
// engine's bit-identity contract: KSPEngine.Paths must return exactly
// these paths in exactly this order.
func kShortestPathsReference(g *Graph, src, dst, k int) []Path {
	if k <= 0 {
		return nil
	}
	first := refMaskedShortestPath(g, src, dst, nil, nil)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	removedEdges := make(map[Edge]bool)
	removedNodes := make(map[int]bool)

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			clear(removedEdges)
			clear(removedNodes)
			for _, p := range paths {
				if len(p) > i && samePrefix(p, rootPath) {
					removedEdges[Canon(p[i], p[i+1])] = true
				}
			}
			for _, p := range candidates {
				if len(p) > i && samePrefix(p, rootPath) {
					removedEdges[Canon(p[i], p[i+1])] = true
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				removedNodes[v] = true
			}

			spurPath := refMaskedShortestPath(g, spurNode, dst, removedNodes, removedEdges)
			if spurPath == nil {
				continue
			}
			total := make(Path, 0, i+len(spurPath))
			total = append(total, rootPath...)
			total = append(total, spurPath[1:]...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool { return lessPath(candidates[a], candidates[b]) })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func refMaskedShortestPath(g *Graph, src, dst int, skipNode map[int]bool, skipEdge map[Edge]bool) Path {
	if skipNode[src] || skipNode[dst] {
		return nil
	}
	if src == dst {
		return Path{src}
	}
	n := g.N()
	dist := make([]int, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, v := range g.adj[u] {
			if dist[v] != Unreachable || skipNode[v] {
				continue
			}
			if len(skipEdge) > 0 && skipEdge[Canon(u, v)] {
				continue
			}
			dist[v] = dist[u] + 1
			parent[v] = u
			queue = append(queue, v)
		}
	}
	if dist[dst] == Unreachable {
		return nil
	}
	path := make(Path, dist[dst]+1)
	cur := dst
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = cur
		cur = parent[cur]
	}
	return path
}

func randomConnectedGraph(n, extraEdges int, r *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// randomRegularGraph builds an r-regular graph on n vertices the way
// Jellyfish does: join random non-adjacent vertices that have free ports,
// and when a pick fails, splice a vertex with two free ports into a
// random edge x–y, replacing it by u–x and u–y. A rare dead end leaves a
// vertex one port short, which the tests below do not mind.
func randomRegularGraph(n, r int, src *rand.Rand) *Graph {
	g := New(n)
	for try := 0; try < 100*n*r; try++ {
		var free []int
		for v := 0; v < n; v++ {
			if g.Degree(v) < r {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			break
		}
		u, v := free[src.Intn(len(free))], free[src.Intn(len(free))]
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
			continue
		}
		if r-g.Degree(u) >= 2 {
			es := g.Edges()
			e := es[src.Intn(len(es))]
			if e.U != u && e.V != u && !g.HasEdge(u, e.U) && !g.HasEdge(u, e.V) {
				g.RemoveEdge(e.U, e.V)
				g.AddEdge(u, e.U)
				g.AddEdge(u, e.V)
			}
		}
	}
	return g
}

// enumerates reports whether the distance-guided DFS answers the pair
// within its scan budget, that is, without falling back to Yen.
func enumerates(e *KSPEngine, src, dst, k int) bool {
	e.csr = e.g.CSR()
	e.ensure(k)
	levels := make([]int32, e.csr.N())
	for i := range levels {
		levels[i] = Unreachable
	}
	e.csr.BFSInto(int32(dst), levels, make([]int32, 0, e.csr.N()))
	_, ok := e.enumerate(src, dst, k, levels)
	return ok
}

func requireReference(t *testing.T, eng *KSPEngine, g *Graph, src, dst, k int) {
	t.Helper()
	want := kShortestPathsReference(g, src, dst, k)
	got := eng.Paths(src, dst, k, nil)
	if len(got) != len(want) {
		t.Fatalf("n=%d %d->%d k=%d: %d paths, want %d", g.N(), src, dst, k, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("n=%d %d->%d k=%d: path %d = %v, want %v", g.N(), src, dst, k, i, got[i], want[i])
		}
	}
}

// The engine's whole value proposition is scratch reuse without
// observable effect: one engine driven across many pairs, many k values,
// and interleaved sparse/dense graphs must reproduce the reference
// algorithm byte for byte. The degree-8 random regular graphs of 64–128
// vertices at k=8 are the production shape (the transport evaluations'
// ksp8 tables), where the enumeration must also never need its guard.
func TestKSPEngineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		n := 8 + r.Intn(25)
		g := randomConnectedGraph(n, n+r.Intn(3*n), r)
		eng := NewKSPEngine(g)
		for pair := 0; pair < 40; pair++ {
			requireReference(t, eng, g, r.Intn(n), r.Intn(n), 1+r.Intn(10))
		}
	}
	for _, n := range []int{64, 96, 128} {
		g := randomRegularGraph(n, 8, r)
		eng := NewKSPEngine(g)
		for pair := 0; pair < 60; pair++ {
			src, dst := r.Intn(n), r.Intn(n)
			requireReference(t, eng, g, src, dst, 8)
			if src != dst && !enumerates(eng, src, dst, 8) {
				t.Fatalf("n=%d %d->%d: the enumeration hit its scan budget", n, src, dst)
			}
		}
	}
}

// A 14-vertex clique hung off src behind a cut vertex defeats the
// distance bound: every pass past the two real paths explores the
// clique's simple paths, exponentially many, none of which can return to
// dst. The scan budget must stop the enumeration and Yen must answer the
// pair exactly; without the guard this test would not finish.
func TestKSPEngineGuardOnCliqueBehindCutVertex(t *testing.T) {
	const clique = 14
	// 0 = src, 1 = dst, 2 = cut vertex, 3..16 = clique, 17-18 = detour.
	g := New(3 + clique + 2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	for u := 3; u < 3+clique; u++ {
		g.AddEdge(2, u)
		for v := u + 1; v < 3+clique; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(0, 17)
	g.AddEdge(17, 18)
	g.AddEdge(18, 1)
	eng := NewKSPEngine(g)
	if enumerates(eng, 0, 1, 8) {
		t.Fatal("the enumeration answered without hitting its scan budget")
	}
	requireReference(t, eng, g, 0, 1, 8)
	if got := eng.Paths(0, 1, 8, nil); len(got) != 2 {
		t.Fatalf("got %v, want the direct path and the detour", got)
	}
	// The abandoned search left the scratch clean for the next pair.
	requireReference(t, eng, g, 3, 1, 8)
}

// One-shot KShortestPaths delegates to the engine; pin the delegation on
// a disconnected pair and the trivial same-node pair.
func TestKSPEngineEdgeCases(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if got := g.KShortestPaths(0, 3, 4); got != nil {
		t.Fatalf("disconnected pair returned %v", got)
	}
	eng := NewKSPEngine(g)
	if got := eng.Paths(2, 2, 3, nil); len(got) != 1 || !got[0].Equal(Path{2}) {
		t.Fatalf("self pair returned %v", got)
	}
	if got := eng.Paths(0, 1, 0, nil); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

// The engine must observe graph mutations made between calls (the
// incremental-family searches rewire links between probes).
func TestKSPEngineSeesMutations(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	eng := NewKSPEngine(g)
	if got := eng.Paths(0, 3, 2, nil); len(got) != 1 {
		t.Fatalf("before mutation: %v", got)
	}
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	got := eng.Paths(0, 3, 4, nil)
	want := kShortestPathsReference(g, 0, 3, 4)
	if len(got) != len(want) {
		t.Fatalf("after mutation: %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("after mutation path %d: %v, want %v", i, got[i], want[i])
		}
	}
}
