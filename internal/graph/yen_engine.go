package graph

import "sort"

// Yen's k-shortest-paths ranking over flat, reusable scratch, kept as the
// guard of KSPEngine's distance-guided enumeration.

// bump starts a new epoch, invalidating all stamps at once. On the
// (practically unreachable) wraparound the stamp arrays are cleared so
// stale stamps from 4 billion spurs ago cannot alias the new epoch.
func (e *KSPEngine) bump() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.seen)
		clear(e.skipNode)
		e.epoch = 1
	}
}

// yen answers a pair the enumeration gave up on, by Yen's ranking
// algorithm with lexicographic BFS spurs: the same paths as the
// enumeration, at a polynomial cost. Callers have refreshed e.csr and
// sized the scratch.
func (e *KSPEngine) yen(src, dst, k int) []Path {
	e.maskedNbrs = e.maskedNbrs[:0]
	e.bump()
	first := e.bfs(src, dst, false)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	candidates := e.candidates[:0]

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			e.bump()
			e.maskedNbrs = e.maskedNbrs[:0]
			// Mask edges that would recreate an already-known path
			// sharing this root (p[i] is the spur node for all of them),
			// then the root's interior nodes.
			for _, p := range paths {
				if len(p) > i && samePrefix(p, rootPath) {
					e.maskNbr(p[i+1])
				}
			}
			for _, p := range candidates {
				if len(p) > i && samePrefix(p, rootPath) {
					e.maskNbr(p[i+1])
				}
			}
			for _, v := range rootPath[:len(rootPath)-1] {
				e.skipNode[v] = e.epoch
			}

			spurPath := e.bfs(spurNode, dst, true)
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
		candidates = append(candidates[:0], candidates[1:]...)
	}
	// Keep the slice's capacity but actually drop the Path references it
	// accumulated (including slots past len from the pop-front shifts),
	// so a long-lived engine doesn't pin a large ranking round's memory.
	clear(candidates[:cap(candidates)])
	e.candidates = candidates[:0]
	return paths
}

//jellyvet:hotpath
func (e *KSPEngine) maskNbr(v int) {
	for _, m := range e.maskedNbrs {
		if m == int32(v) {
			return
		}
	}
	e.maskedNbrs = append(e.maskedNbrs, int32(v)) //jellyvet:allow hotpath -- grows engine-owned mask scratch; bounded by max degree and reused across queries
}

//jellyvet:hotpath
func (e *KSPEngine) nbrMasked(v int) bool {
	for _, m := range e.maskedNbrs {
		if m == int32(v) {
			return true
		}
	}
	return false
}

// bfs finds one shortest src→dst path under the current epoch's masks,
// breaking ties lexicographically (FIFO order over sorted adjacency —
// exactly the one-shot maskedShortestPath's rule; dst's parent is fixed
// at discovery, so the search stops there). masked selects whether the
// spur masks apply; the first path of a pair runs unmasked. Edge masks
// apply only to expansions of src itself: every masked edge is incident
// to the spur node, and its far endpoint is src's neighbor (traversals
// back into src are impossible — src is already seen).
//
//jellyvet:hotpath
func (e *KSPEngine) bfs(src, dst int, masked bool) Path {
	if masked && (e.skipNode[src] == e.epoch || e.skipNode[dst] == e.epoch) {
		return nil
	}
	if src == dst {
		return Path{src} //jellyvet:allow hotpath -- returned Path is caller-owned by contract; one allocation per emitted path
	}
	c := e.csr
	ep := e.epoch
	e.seen[src] = ep
	e.dist[src] = 0
	e.parent[src] = -1
	q := e.queue
	q[0] = int32(src)
	head, tail := 0, 1
	found := false
	for head < tail && !found {
		u := int(q[head])
		head++
		du := e.dist[u]
		edgeMasks := masked && u == src && len(e.maskedNbrs) > 0
		for _, v32 := range c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] {
			v := int(v32)
			if e.seen[v] == ep || (masked && e.skipNode[v] == ep) {
				continue
			}
			if edgeMasks && e.nbrMasked(v) {
				continue
			}
			e.seen[v] = ep
			e.dist[v] = du + 1
			e.parent[v] = int32(u)
			if v == dst {
				found = true
				break
			}
			q[tail] = int32(v)
			tail++
		}
	}
	if !found {
		return nil
	}
	path := make(Path, e.dist[dst]+1) //jellyvet:allow hotpath -- returned Path is caller-owned by contract; one allocation per emitted path
	cur := dst
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = cur
		cur = int(e.parent[cur])
	}
	return path
}

func samePrefix(p Path, root Path) bool {
	if len(p) < len(root) {
		return false
	}
	for i := range root {
		if p[i] != root[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}

func lessPath(a, b Path) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
