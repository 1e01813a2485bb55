package routing

import (
	"testing"

	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

var benchTable *Table

// benchCompiled times one table build on a family miss — a fresh Compiled
// per op, so every level, count and path set is computed — over the shape
// of the planning service's transport evaluations: a 96-switch, 12-port,
// degree-8 random regular graph and the switch pairs of a random server
// permutation.
func benchCompiled(b *testing.B, build func(c *Compiled, pairs []Pair) *Table) {
	top := topology.Jellyfish(96, 12, 8, rng.New(1))
	pairs := PairsForPattern(traffic.RandomPermutation(top.ServerSwitches(), rng.New(2)))
	b.ReportAllocs()
	for b.Loop() {
		benchTable = build(NewCompiled(top.Graph), pairs)
	}
}

func BenchmarkCompiledKShortest(b *testing.B) {
	benchCompiled(b, func(c *Compiled, pairs []Pair) *Table { return c.KShortest(pairs, 8, 1) })
}

func BenchmarkCompiledECMP(b *testing.B) {
	benchCompiled(b, func(c *Compiled, pairs []Pair) *Table { return c.ECMP(pairs, 8, rng.New(3), 1) })
}
