// Package rng provides deterministic, splittable random number generation
// shared by every topology generator and experiment harness in this
// repository. All randomized procedures in the paper (RRG construction,
// permutation traffic, link failures, ...) are seeded through this package so
// that every figure is exactly reproducible from a root seed.
package rng

import "math/rand"

// A Source is a deterministic random stream. It wraps math/rand.Rand with a
// stable seed-splitting scheme so that independent components of an
// experiment (topology, traffic, failures) draw from independent streams.
type Source struct {
	*rand.Rand
	seed uint64
}

// New returns a source seeded with seed.
func New(seed uint64) *Source {
	return &Source{Rand: rand.New(rand.NewSource(int64(mix(seed)))), seed: seed}
}

// Seed reports the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Split derives an independent source for the named sub-component. Calling
// Split with the same label always yields the same stream, regardless of how
// much the parent stream has been consumed.
func (s *Source) Split(label string) *Source {
	return New(s.labelSeed(label))
}

// SplitN derives an independent source for the i-th trial of the named
// sub-component.
func (s *Source) SplitN(label string, i int) *Source {
	return New(mix(s.labelSeed(label) ^ (0x9e3779b97f4a7c15 * uint64(i+1))))
}

// labelSeed is the seed Split(label) hands to New: an FNV-style hash of
// the label over this source's seed, then mixed. SplitN derives from the
// same value without seeding a generator for it.
func (s *Source) labelSeed(label string) uint64 {
	h := s.seed
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	return mix(h)
}

// mix is the SplitMix64 finalizer; it decorrelates nearby seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Perm returns a random permutation of n elements, like rand.Perm but
// guaranteed to use this source.
func (s *Source) Perm(n int) []int { return s.Rand.Perm(n) }
