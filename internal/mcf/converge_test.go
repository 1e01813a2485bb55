package mcf_test

import (
	"fmt"
	"testing"

	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/topology"
	"jellyfish/internal/traffic"
)

type convergeCase struct {
	name  string
	top   *topology.Topology
	comms []mcf.Commodity
}

// convergeCases are the instances of TestConvergencePhases: 20 seeded
// Jellyfish RRGs shaped like the service's exact evaluates (24–36
// switches, 8 or 10 ports, network degree ports−3, one random
// permutation) plus the 80-switch BenchmarkMaxConcurrentFlow instance.
func convergeCases() []convergeCase {
	var out []convergeCase
	add := func(sw, ports, deg int, topoSeed, trafficSeed uint64) {
		top := topology.Jellyfish(sw, ports, deg, rng.New(topoSeed))
		comms := traffic.RandomPermutation(top.ServerSwitches(), rng.New(trafficSeed)).Commodities()
		out = append(out, convergeCase{fmt.Sprintf("rrg%d-k%d-s%d", sw, ports, topoSeed), top, comms})
	}
	for i := 0; i < 20; i++ {
		ports := 8 + 2*((i/5)%2)
		add(24+3*(i%5), ports, ports-3, uint64(1000+i), uint64(2000+i))
	}
	add(80, 16, 12, 1, 7)
	return out
}

// convergeParentPhases is the total phase count of convergeCases under
// the lifetime-only primal bound that preceded the windowed certificate
// (same dual side, sweep and termination rules). Phase counts are exact
// and deterministic, so the 0.7× gate below is not a timing test.
const convergeParentPhases = 6529

// TestConvergencePhases pins the windowed primal certificate's
// convergence win and its soundness: every default solve meets the
// solver's gap rule and brackets a tight reference solve of the same
// instance (ε=0.02, Tol=0.005; skipped under -short, where the 3000-phase
// references dominate the run), and all of them together take at most
// 0.7× the phases the lifetime-only bound took.
func TestConvergencePhases(t *testing.T) {
	total := 0
	for _, c := range convergeCases() {
		res := mcf.MaxConcurrentFlow(c.top.Graph, c.comms, mcf.Options{Workers: 1})
		total += res.Phases
		t.Logf("%s: λ=%.5f ub=%.5f phases=%d", c.name, res.Lambda, res.UpperBound, res.Phases)
		if !testing.Short() {
			ref := mcf.MaxConcurrentFlow(c.top.Graph, c.comms, mcf.Options{Workers: 1, Epsilon: 0.02, Tol: 0.005})
			if res.Lambda > ref.UpperBound*(1+1e-9) || res.UpperBound < ref.Lambda*(1-1e-9) {
				t.Errorf("%s: [%v, %v] does not bracket the reference [%v, %v] (%d phases)",
					c.name, res.Lambda, res.UpperBound, ref.Lambda, ref.UpperBound, ref.Phases)
			}
		}
		if gap := (res.UpperBound - res.Lambda) / res.UpperBound; gap > 2*0.05+1e-12 {
			t.Errorf("%s: certificate gap %v exceeds 2·Tol", c.name, gap)
		}
	}
	t.Logf("total phases %d (lifetime-only bound: %d)", total, convergeParentPhases)
	if float64(total) > 0.7*convergeParentPhases {
		t.Fatalf("total phases %d > 0.7 × %d", total, convergeParentPhases)
	}
}
