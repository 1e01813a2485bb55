package mcf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jellyfish/internal/graph"
)

// regularish builds a connected random graph with n vertices and roughly
// n*deg/2 edges (ring backbone + random chords), deterministic per seed.
func regularish(n, deg int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	for g.M() < n*deg/2 {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func permComms(n int, demand float64, seed int64) []Commodity {
	r := rand.New(rand.NewSource(seed))
	var comms []Commodity
	for i, p := range r.Perm(n) {
		if i != p {
			comms = append(comms, Commodity{i, p, demand})
		}
	}
	return comms
}

// assertAgree checks that two results on the same instance agree within
// the solver's approximation guarantee: each carries certificates
// bracketing the true optimum, so the intervals must overlap and the
// primal values can differ by at most the certified gaps.
func assertAgree(t *testing.T, a, b Result) {
	t.Helper()
	if a.Lambda > a.UpperBound+1e-9 || b.Lambda > b.UpperBound+1e-9 {
		t.Fatalf("certificates inverted: a=[%v,%v] b=[%v,%v]", a.Lambda, a.UpperBound, b.Lambda, b.UpperBound)
	}
	if a.Lambda > b.UpperBound+1e-9 || b.Lambda > a.UpperBound+1e-9 {
		t.Fatalf("certificate intervals disjoint: a=[%v,%v] b=[%v,%v]", a.Lambda, a.UpperBound, b.Lambda, b.UpperBound)
	}
}

// A warm re-solve of the same instance must agree with the cold solve and
// converge in far fewer phases — the core warm-start claim.
func TestWarmResolveSameInstance(t *testing.T) {
	g := regularish(40, 8, 1)
	comms := permComms(40, 2, 2)
	sv := NewSolver(Options{Workers: 1})
	cold, st := sv.Solve(g, comms, nil)
	warm, _ := sv.Solve(g, comms, st)
	assertAgree(t, cold, warm)
	if warm.Phases >= cold.Phases {
		t.Fatalf("warm re-solve took %d phases, cold took %d — no speedup", warm.Phases, cold.Phases)
	}
}

// Warm-starting across a perturbed commodity set (same graph, different
// permutation) must agree with a cold solve of the perturbed instance
// within the approximation guarantee.
func TestWarmAcrossCommodityPerturbation(t *testing.T) {
	g := regularish(40, 8, 1)
	c1 := permComms(40, 2, 2)
	c2 := permComms(40, 2, 3)
	coldRef := MaxConcurrentFlow(g, c2, Options{Workers: 1})
	sv := NewSolver(Options{Workers: 1})
	_, st := sv.Solve(g, c1, nil)
	warm, _ := sv.Solve(g, c2, st)
	assertAgree(t, coldRef, warm)
	// The warm primal may not fall below the cold one by more than the
	// guarantee: both bracket the same optimum λ*.
	if warm.Lambda < coldRef.Lambda*(1-2*0.05)-1e-9 {
		t.Fatalf("warm λ=%v more than 2·Tol below cold λ=%v", warm.Lambda, coldRef.Lambda)
	}
}

// Warm-starting across a topology perturbation (a few links removed, as
// in failure sweeps) must agree with the cold solve of the new topology.
func TestWarmAcrossTopologyPerturbation(t *testing.T) {
	g := regularish(40, 8, 1)
	comms := permComms(40, 2, 2)
	sv := NewSolver(Options{Workers: 1})
	_, st := sv.Solve(g, comms, nil)

	g2 := g.Clone()
	edges := g2.Edges()
	for i := 0; i < 4; i++ {
		g2.RemoveEdge(edges[i*7].U, edges[i*7].V)
	}
	coldRef := MaxConcurrentFlow(g2, comms, Options{Workers: 1})
	warm, _ := sv.Solve(g2, comms, st)
	assertAgree(t, coldRef, warm)
}

// A warm state from an unrelated topology must be refused: the solve
// falls back to a cold start, bit-identical to the same handle solving
// with no warm state at all.
func TestWarmFallbackOnUnrelatedTopology(t *testing.T) {
	g := regularish(40, 8, 1)
	other := regularish(40, 8, 99) // different chords: overlap well below 50%
	comms := permComms(40, 2, 2)

	svA := NewSolver(Options{Workers: 1})
	_, stOther := svA.Solve(other, permComms(40, 2, 5), nil)

	svB := NewSolver(Options{Workers: 1})
	ref, _ := svB.Solve(g, comms, nil)
	svC := NewSolver(Options{Workers: 1})
	got, _ := svC.Solve(g, comms, stOther)
	if got.Lambda != ref.Lambda || got.UpperBound != ref.UpperBound || got.Phases != ref.Phases {
		t.Fatalf("unrelated warm state changed the solve: got (λ=%v ub=%v ph=%d), want (λ=%v ub=%v ph=%d)",
			got.Lambda, got.UpperBound, got.Phases, ref.Lambda, ref.UpperBound, ref.Phases)
	}
	for i := range ref.ArcFlow {
		if got.ArcFlow[i] != ref.ArcFlow[i] {
			t.Fatalf("arc %d flow %v != %v after refused warm seed", i, got.ArcFlow[i], ref.ArcFlow[i])
		}
	}
}

// A warm state from a truncated (unconverged) run must be refused too:
// immature seeds measurably slow the next solve down, so the maturity
// rule falls back to cold.
func TestWarmSeedRefusedWhenImmature(t *testing.T) {
	g := regularish(40, 8, 1)
	comms := permComms(40, 2, 2)

	// An early-accepted feasibility probe exits long before the gap
	// closes: its state must be immature (demand far below capacity).
	svA := NewSolver(Options{Workers: 1})
	ok, st := svA.FeasibleAtFull(g, permComms(40, 0.2, 5), 0.03, nil)
	if !ok {
		t.Fatal("setup: lightly loaded instance must be feasible")
	}
	if gap := (st.UpperBound - st.Lambda) / st.UpperBound; gap <= 0.05 {
		t.Skipf("setup produced a converged state (gap %v); cannot exercise the maturity rule", gap)
	}

	svB := NewSolver(Options{Workers: 1})
	ref, _ := svB.Solve(g, comms, nil)
	svC := NewSolver(Options{Workers: 1})
	got, _ := svC.Solve(g, comms, st)
	if got.Lambda != ref.Lambda || got.UpperBound != ref.UpperBound || got.Phases != ref.Phases {
		t.Fatalf("immature warm state was not refused: got (λ=%v ph=%d), want (λ=%v ph=%d)",
			got.Lambda, got.Phases, ref.Lambda, ref.Phases)
	}
}

// A chain of warm-started solves must be bit-identical for every worker
// count: warm state is a pure function of the chain position.
func TestWarmChainWorkerInvariance(t *testing.T) {
	g := regularish(48, 8, 7)
	chain := [][]Commodity{permComms(48, 2, 1), permComms(48, 2, 2), permComms(48, 2, 3)}

	run := func(workers int) []Result {
		sv := NewSolver(Options{Workers: workers})
		var st *State
		var out []Result
		for _, comms := range chain {
			var res Result
			res, st = sv.Solve(g, comms, st)
			out = append(out, res)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range base {
			if got[i].Lambda != base[i].Lambda || got[i].UpperBound != base[i].UpperBound || got[i].Phases != base[i].Phases {
				t.Fatalf("workers=%d link %d: (λ=%v ub=%v ph=%d) != serial (λ=%v ub=%v ph=%d)",
					w, i, got[i].Lambda, got[i].UpperBound, got[i].Phases,
					base[i].Lambda, base[i].UpperBound, base[i].Phases)
			}
			for a := range base[i].ArcFlow {
				if got[i].ArcFlow[a] != base[i].ArcFlow[a] {
					t.Fatalf("workers=%d link %d: arc %d flow differs", w, i, a)
				}
			}
		}
	}
}

// Degenerate chain links (no effective commodities) pass the incoming
// state through so the chain is not broken.
func TestWarmChainSurvivesDegenerateLink(t *testing.T) {
	g := regularish(40, 8, 1)
	sv := NewSolver(Options{Workers: 1})
	_, st := sv.Solve(g, permComms(40, 2, 2), nil)
	res, st2 := sv.Solve(g, []Commodity{{3, 3, 1}}, st)
	if !math.IsInf(res.Lambda, 1) {
		t.Fatalf("degenerate instance λ=%v, want +Inf", res.Lambda)
	}
	if st2 != st {
		t.Fatal("degenerate link did not pass the warm state through")
	}
	if st.Edges() != g.M() {
		t.Fatalf("State.Edges() = %d, want %d", st.Edges(), g.M())
	}
}

// Result.ArcFlow must witness Result.Lambda whichever flow won the
// certificate — the lifetime flow or one of the snapshot windows — for
// plain and warm-started handle solves alike (a cold handle solve is the
// plain solve; see TestColdHandleMatchesPackageSolve): the returned flow must
// respect capacity, carry at least λ·Σdemand of arc volume, and have net
// outflow λ·(demand sourced − demand sunk) at every switch, as a flow
// routing λ × every demand does. At least one plain solve must be won by
// a window (its λ above the final lifetime bound), so window witnesses
// are what gets checked.
func TestHandleArcFlowCertifiesLambda(t *testing.T) {
	g := regularish(40, 8, 1)
	windowWon := false
	var st *State
	sv := NewSolver(Options{Workers: 1})
	for _, seed := range []int64{2, 3, 4} {
		comms := permComms(40, 2, seed)
		s := newSolver(g.CSR(), comms, Options{Workers: 1}.withDefaults())
		plain := s.run()
		checkWitness(t, fmt.Sprintf("plain seed %d", seed), g, comms, plain)
		if plain.Lambda > float64(plain.Phases)/s.maxOveruse()*(1+1e-9) {
			windowWon = true
		}
		var warm Result
		warm, st = sv.Solve(g, comms, st)
		checkWitness(t, fmt.Sprintf("warm handle seed %d", seed), g, comms, warm)
	}
	if !windowWon {
		t.Fatal("no plain solve was won by a snapshot window; the test no longer covers window witnesses")
	}
}

func checkWitness(t *testing.T, name string, g *graph.Graph, comms []Commodity, res Result) {
	t.Helper()
	opt := Options{}.withDefaults()
	net := make([]float64, g.N()) // expected net outflow per switch
	demSum := 0.0
	for _, c := range comms {
		net[c.Src] += res.Lambda * c.Demand
		net[c.Dst] -= res.Lambda * c.Demand
		demSum += c.Demand
	}
	total := 0.0
	for i, f := range res.ArcFlow {
		if f > opt.LinkCapacity+1e-9 {
			t.Fatalf("%s: arc %d flow %v exceeds capacity", name, i, f)
		}
		total += f
		e := res.Edges[i/2]
		from, to := e.U, e.V
		if i%2 == 1 {
			from, to = to, from
		}
		net[from] -= f
		net[to] += f
	}
	// A flow shipping λ·demand for every commodity crosses at least one
	// arc per shipped unit, so its total arc volume is ≥ λ·Σd.
	if total < res.Lambda*demSum*(1-1e-9) {
		t.Fatalf("%s: ArcFlow volume %v cannot witness λ=%v over demand %v", name, total, res.Lambda, demSum)
	}
	for v, r := range net {
		if math.Abs(r) > 1e-9*res.Lambda*demSum {
			t.Fatalf("%s: switch %d conservation residual %v (λ=%v)", name, v, r, res.Lambda)
		}
	}
}

// A cold handle solve runs the same primal certificate, dual side and
// termination rules as the package-level entry point, so the two are
// bit-identical — the contract Solver.Solve documents for a nil warm.
func TestColdHandleMatchesPackageSolve(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := 24 + 3*int(seed)
		g := regularish(n, 6, seed)
		comms := permComms(n, 1+float64(seed%3), seed+10)
		want := MaxConcurrentFlow(g, comms, Options{Workers: 1})
		got, _ := NewSolver(Options{Workers: 1}).Solve(g, comms, nil)
		if got.Lambda != want.Lambda || got.UpperBound != want.UpperBound || got.Phases != want.Phases {
			t.Fatalf("seed %d: handle (λ=%v ub=%v ph=%d) != package (λ=%v ub=%v ph=%d)",
				seed, got.Lambda, got.UpperBound, got.Phases, want.Lambda, want.UpperBound, want.Phases)
		}
		if !slices.Equal(got.ArcFlow, want.ArcFlow) {
			t.Fatalf("seed %d: handle and package ArcFlow differ", seed)
		}
	}
}

// The handle must keep results identical to the package-level entry point
// semantics on a fresh (cold) solve for the certificates' sake, and its
// state snapshots must be immutable: re-solving through the handle must
// not corrupt a previously returned state.
func TestStateImmutableAcrossHandleReuse(t *testing.T) {
	g := regularish(40, 8, 1)
	c1 := permComms(40, 2, 2)
	c2 := permComms(40, 2, 3)
	sv := NewSolver(Options{Workers: 1})
	_, st1 := sv.Solve(g, c1, nil)
	snapshot := append([]float64(nil), st1.length...)
	_, _ = sv.Solve(g, c2, st1)
	for i := range snapshot {
		if st1.length[i] != snapshot[i] {
			t.Fatal("handle reuse mutated a previously returned State")
		}
	}
}
