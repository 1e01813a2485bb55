package routing

import (
	"testing"

	"jellyfish/internal/graph"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
)

func tablesEqual(t *testing.T, label string, a, b *Table) {
	t.Helper()
	if a.Kind != b.Kind {
		t.Fatalf("%s: kind %q vs %q", label, a.Kind, b.Kind)
	}
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("%s: %d pairs vs %d", label, len(a.Paths), len(b.Paths))
	}
	for pair, ap := range a.Paths {
		bp, ok := b.Paths[pair]
		if !ok {
			t.Fatalf("%s: pair %v missing", label, pair)
		}
		if len(ap) != len(bp) {
			t.Fatalf("%s: pair %v has %d vs %d paths", label, pair, len(ap), len(bp))
		}
		for i := range ap {
			if !ap[i].Equal(bp[i]) {
				t.Fatalf("%s: pair %v path %d = %v vs %v", label, pair, i, ap[i], bp[i])
			}
		}
	}
}

// A Compiled instance must produce tables byte-identical to the one-shot
// constructors, on first build (cold memo), on rebuild (warm memo), and
// for pair sets that only partially overlap the memo.
func TestCompiledMatchesOneShot(t *testing.T) {
	top := topology.Jellyfish(40, 10, 6, rng.New(5))
	g := top.Graph
	var pairsA, pairsB []Pair
	for s := 0; s < 20; s++ {
		pairsA = append(pairsA, Pair{s, (s + 7) % 40}, Pair{s, (s + 13) % 40})
		pairsB = append(pairsB, Pair{s, (s + 13) % 40}, Pair{(s + 5) % 40, s})
	}

	c := NewCompiled(g)
	for round := 0; round < 2; round++ {
		for _, pairs := range [][]Pair{pairsA, pairsB} {
			tablesEqual(t, "ksp", KShortest(g, pairs, 8, 1), c.KShortest(pairs, 8, 2))
			// Different k must not collide in the memo.
			tablesEqual(t, "ksp4", KShortest(g, pairs, 4, 1), c.KShortest(pairs, 4, 1))
			tablesEqual(t, "ecmp", ECMP(g, pairs, 8, rng.New(99), 1), c.ECMP(pairs, 8, rng.New(99), 2))
		}
	}
}

// KShortest feeds each engine the destination's memoized levels, shared
// with ECMP sources; the tables must equal engine calls that compute
// their own levels, on the same pairs.
func TestCompiledKShortestMatchesEngine(t *testing.T) {
	top := topology.Jellyfish(96, 12, 8, rng.New(17))
	g := top.Graph
	var pairs []Pair
	for s := 0; s < 96; s += 3 {
		pairs = append(pairs, Pair{s, (s + 41) % 96}, Pair{(s + 41) % 96, s})
	}
	c := NewCompiled(g)
	c.ECMP(pairs, 8, rng.New(1), 2) // memoize the sources' levels first
	got := c.KShortest(pairs, 8, 2)
	eng := graph.NewKSPEngine(g)
	for _, p := range pairs {
		want := eng.Paths(p.Src, p.Dst, 8, nil)
		ps := got.PathsFor(p.Src, p.Dst)
		if len(ps) != len(want) {
			t.Fatalf("pair %v: %d paths, engine %d", p, len(ps), len(want))
		}
		for i := range ps {
			if !ps[i].Equal(want[i]) {
				t.Fatalf("pair %v path %d = %v, engine %v", p, i, ps[i], want[i])
			}
		}
	}
}

// The ECMP stream contract: per-source sampling streams are derived by
// source id from the passed src, so a compiled rebuild with the same src
// replays identical draws no matter what was built in between.
func TestCompiledECMPStreamIdentity(t *testing.T) {
	top := topology.Jellyfish(30, 8, 5, rng.New(11))
	pairs := []Pair{{0, 9}, {4, 21}, {17, 3}, {9, 0}}
	c := NewCompiled(top.Graph)
	first := c.ECMP(pairs, 8, rng.New(42), 1)
	c.KShortest(pairs, 8, 1) // unrelated interleaved work
	c.ECMP([]Pair{{2, 14}}, 64, rng.New(7), 1)
	again := c.ECMP(pairs, 8, rng.New(42), 1)
	tablesEqual(t, "ecmp-replay", first, again)
}

func TestCompiledConcurrentUse(t *testing.T) {
	top := topology.Jellyfish(30, 8, 5, rng.New(3))
	var pairs []Pair
	for s := 0; s < 30; s++ {
		pairs = append(pairs, Pair{s, (s + 11) % 30})
	}
	c := NewCompiled(top.Graph)
	want := KShortest(top.Graph, pairs, 8, 1)
	done := make(chan *Table, 4)
	for i := 0; i < 4; i++ {
		go func() { done <- c.KShortest(pairs, 8, 1) }()
	}
	for i := 0; i < 4; i++ {
		tablesEqual(t, "concurrent", want, <-done)
	}
}
