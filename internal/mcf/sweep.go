package mcf

import "math"

// This file is the solver's shortest-path kernel: a zero-steady-state-
// allocation Dijkstra over the CSR arc arrays, with per-caller reusable
// scratch, generation-stamped clearing, an inlined index-based 4-ary heap,
// and early exit once every destination of the swept source is settled.
//
// The kernel is the hot path of every capacity result in the repo: a GK
// solve runs one sweep per source per phase (plus recomputes and dual
// refreshes), so sweeps number in the hundreds of thousands per topology.
// The seed implementation rebuilt four O(n) slices and a boxed
// container/heap per sweep; sweepScratch owns all of that state across
// sweeps and clears it in O(touched) via generation stamps.

// sweepScratch is the reusable per-sweep state. One instance serves one
// sweep at a time; the solver keeps a pool indexed by batch slot (phases)
// and by worker (dual refreshes). All clearing is done by bumping gen, so
// a sweep costs no allocations and no O(n) memsets in steady state.
type sweepScratch struct {
	dist      []float64 // tentative/final distance; valid iff reach[v] == gen
	parentArc []int32   // arc entering v on the tree; valid iff reach[v] == gen
	reach     []uint32  // v touched this sweep iff reach[v] == gen
	dstMark   []uint32  // v is one of the sweep's destinations iff dstMark[v] == gen
	gen       uint32
	heapNode  []int32 // 4-ary min-heap, parallel slices (node, key)
	heapDist  []float64
}

func newSweepScratch(n int) *sweepScratch {
	stamps := make([]uint32, 2*n) // reach and dstMark share one allocation
	return &sweepScratch{
		dist:      make([]float64, n),
		parentArc: make([]int32, n),
		reach:     stamps[:n:n],
		dstMark:   stamps[n:],
	}
}

// distTo returns the sweep's distance to v, +Inf if v was never reached.
// Valid only for the sweep's requested destinations (each is settled or
// unreachable when sweep returns; other vertices may hold tentative
// values after an early exit).
//
//jellyvet:hotpath
func (sc *sweepScratch) distTo(v int32) float64 {
	if sc.reach[v] != sc.gen {
		return math.Inf(1)
	}
	return sc.dist[v]
}

// sweep runs Dijkstra from src under the solver's current arc lengths,
// stopping as soon as every vertex in dsts is settled. dsts must be
// duplicate-free; an empty dsts settles the whole reachable component.
//
// Early exit is exact, not approximate: a vertex's distance and parent are
// final at settle time, so the prefix of the sweep that ran is bit-identical
// to the same prefix of a full sweep. Destinations not settled when the
// frontier empties are unreachable (distTo reports +Inf).
//
// The body hand-inlines the heap and hoists every array into a local so
// the whole loop runs on registers and bounds-check-eliminated slices;
// pushes append into scratch-owned backing arrays, so steady state
// allocates nothing. Relaxation uses strict improvement, which makes the
// pushed keys per node strictly decreasing — a popped entry is stale iff
// its key exceeds dist[node], so no separate settled array is needed.
//
//jellyvet:hotpath
func (s *solver) sweep(sc *sweepScratch, src int32, dsts []int32) {
	gen := sc.gen + 1
	if gen == 0 { // uint32 wraparound: stamps from 2^32 sweeps ago alias
		clear(sc.reach)
		clear(sc.dstMark)
		gen = 1
	}
	sc.gen = gen
	dist, parent, reach, dstMark := sc.dist, sc.parentArc, sc.reach, sc.dstMark
	for _, d := range dsts {
		dstMark[d] = gen
	}
	csrStart, csrArc, arcTo, length := s.csrStart, s.csrArc, s.arcTo, s.length
	hn, hd := sc.heapNode[:0], sc.heapDist[:0]
	dist[src] = 0
	parent[src] = -1
	reach[src] = gen
	hn = append(hn, src) //jellyvet:allow hotpath -- push into scratch-owned heap backing; capacity is warm after the first sweep (TestPhaseLoopZeroAllocs)
	hd = append(hd, 0)   //jellyvet:allow hotpath -- push into scratch-owned heap backing; capacity is warm after the first sweep (TestPhaseLoopZeroAllocs)
	pending := len(dsts)
	for len(hn) > 0 {
		// pop-min
		u, du := hn[0], hd[0]
		last := len(hn) - 1
		lv, ld := hn[last], hd[last]
		hn, hd = hn[:last], hd[:last]
		if last > 0 {
			i := 0
			for {
				c := 4*i + 1
				if c >= last {
					break
				}
				m, md := c, hd[c]
				hi := c + 4
				if hi > last {
					hi = last
				}
				for j := c + 1; j < hi; j++ {
					if hd[j] < md {
						m, md = j, hd[j]
					}
				}
				if md >= ld {
					break
				}
				hn[i], hd[i] = hn[m], hd[m]
				i = m
			}
			hn[i], hd[i] = lv, ld
		}
		if du > dist[u] {
			continue // stale entry (lazy deletion)
		}
		// u is settled.
		if dstMark[u] == gen {
			pending--
			if pending == 0 {
				break
			}
		}
		for ai := csrStart[u]; ai < csrStart[u+1]; ai++ {
			a := csrArc[ai]
			v := arcTo[a]
			nd := du + length[a]
			if reach[v] == gen && nd >= dist[v] {
				continue
			}
			dist[v] = nd
			parent[v] = a
			reach[v] = gen
			// push(v, nd)
			hn = append(hn, v)  //jellyvet:allow hotpath -- push into scratch-owned heap backing; capacity is warm after the first sweep (TestPhaseLoopZeroAllocs)
			hd = append(hd, nd) //jellyvet:allow hotpath -- push into scratch-owned heap backing; capacity is warm after the first sweep (TestPhaseLoopZeroAllocs)
			i := len(hn) - 1
			for i > 0 {
				p := (i - 1) >> 2
				if hd[p] <= nd {
					break
				}
				hn[i], hd[i] = hn[p], hd[p]
				i = p
			}
			hn[i], hd[i] = v, nd
		}
	}
	sc.heapNode, sc.heapDist = hn[:0], hd[:0] // keep grown backing arrays
}
