// Package mcf computes maximum concurrent multi-commodity flow on switch
// topologies: the largest λ such that λ·demand can be routed for every
// commodity simultaneously, with flows splittable across paths. This is the
// "optimal routing / ideal load balancing" oracle the Jellyfish paper
// evaluates topologies with (the paper uses the CPLEX LP solver; see
// DESIGN.md §8 for the substitution argument).
//
// The solver is the Garg–Könemann multiplicative-weights approximation with
// Fleischer-style shortest-path reuse. Correctness does not rest on the
// routing heuristic: every run produces
//
//   - a primal certificate — an explicit feasible flow, whose concurrent
//     fraction is Result.Lambda (a true lower bound), and
//   - a dual certificate — a length function whose normalized volume bounds
//     the optimum from above (Result.UpperBound).
//
// The solver iterates until the two certificates are within Options.Tol of
// each other, so reported throughputs carry per-run accuracy guarantees.
//
// The primal certificate is windowed (DESIGN.md §9): besides the lifetime
// flow, every solve certifies the flow routed since each of its last few
// periodic snapshots, so the misrouting of the burn-in phases stops
// dragging the certified λ once the lengths have settled.
//
// The hot path is engineered for zero steady-state allocations (DESIGN.md
// §5): CSR adjacency, reusable generation-stamped Dijkstra scratch per
// batch slot and per worker, a hand-inlined 4-ary heap, early-exit sweeps
// that stop once the source's destinations are settled, and a free
// per-phase dual bound that lets the exact dual refresh run sparsely. The
// measured trajectory lives in BENCH_mcf.json.
package mcf

import (
	"math"
	"slices"

	"jellyfish/internal/graph"
	"jellyfish/internal/parallel"
)

// A Commodity is a demand of Demand units from switch Src to switch Dst.
type Commodity struct {
	Src, Dst int
	Demand   float64
}

// Options configure the solver. The zero value selects sensible defaults.
type Options struct {
	// Epsilon is the multiplicative-weights step size (default 0.1).
	Epsilon float64
	// Tol is the target relative gap between the primal and dual
	// certificates (default 0.05).
	Tol float64
	// MaxPhases caps the number of GK phases (default 3000).
	MaxPhases int
	// LinkCapacity is the capacity of every switch-switch link in each
	// direction, in server-NIC units (default 1).
	LinkCapacity float64
	// Workers bounds the goroutines used for the per-source shortest-path
	// sweeps (0 = all cores, 1 = serial). Sources are processed in fixed
	// batches of sourceBatch trees computed against a length snapshot, so
	// the result is bit-identical for every Workers value.
	Workers int
	// Obs, when non-nil, receives one-way instrumentation (phase/batch
	// counts, solve and phase durations, flight-recorder spans). It never
	// influences the computation: results are byte-identical with or
	// without it. See mcf.Obs.
	Obs *Obs
	// Interrupt, when non-nil, is polled once per GK phase; when it
	// returns true the solve stops before starting another phase and
	// returns the certificates accumulated so far. This bounds
	// cancellation latency to a single phase (DESIGN.md §16). The poll
	// is allocation-free and, while Interrupt keeps returning false,
	// has no effect on the computation — results are byte-identical to
	// a solve without it. A truncated result is NOT marked: callers
	// that interrupt must discard the result themselves (the service's
	// shard worker latches its poll and refuses every result once it
	// has fired), and warm-start chains are safe regardless because
	// seedWarm rejects unconverged states.
	Interrupt func() bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.1
	}
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
	if o.MaxPhases <= 0 {
		o.MaxPhases = 3000
	}
	if o.LinkCapacity <= 0 {
		o.LinkCapacity = 1
	}
	return o
}

// Result reports the outcome of a concurrent-flow computation.
type Result struct {
	// Lambda is the certified feasible concurrent fraction: every commodity
	// can simultaneously route Lambda × its demand.
	Lambda float64
	// UpperBound is the dual bound: the optimum is ≤ UpperBound.
	UpperBound float64
	// Phases is the number of GK phases executed.
	Phases int
	// ArcFlow[i] is the (scaled, feasible) flow on arc i; arcs are indexed
	// as 2*edgeIndex (U→V) and 2*edgeIndex+1 (V→U) over g.Edges().
	ArcFlow []float64
	// Edges records the edge list the arc indexing refers to.
	Edges []graph.Edge
}

// MaxConcurrentFlow computes the maximum concurrent flow for the given
// commodities over the switch graph g. Commodities with Src == Dst or
// Demand <= 0 are ignored (they consume no network capacity). If there are
// no effective commodities the result has Lambda = +Inf.
func MaxConcurrentFlow(g *graph.Graph, comms []Commodity, opt Options) Result {
	return MaxConcurrentFlowCSR(g.CSR(), comms, opt)
}

// MaxConcurrentFlowCSR is MaxConcurrentFlow over a compact adjacency
// snapshot (see graph.CSR). It is the native entry point of the megascale
// tier: consumers that already hold a snapshot (topology.Compact, the
// estimate package) avoid touching the mutable graph entirely, and
// repeated solves on the identical snapshot pointer skip the edge-set
// comparison a fresh Graph would require.
func MaxConcurrentFlowCSR(csr *graph.CSR, comms []Commodity, opt Options) Result {
	opt = opt.withDefaults()
	s := newSolver(csr, comms, opt)
	if s == nil {
		return Result{Lambda: math.Inf(1), UpperBound: math.Inf(1)}
	}
	return s.run()
}

// FeasibleAtFull reports whether all commodities can be routed at full
// demand (λ ≥ 1), using certificates to answer early in either direction.
// slack tightens the test: it requires λ ≥ 1-slack to accept (accounting for
// approximation error) and UpperBound < 1-slack to reject.
func FeasibleAtFull(g *graph.Graph, comms []Commodity, opt Options, slack float64) bool {
	opt = opt.withDefaults()
	s := newSolver(g.CSR(), comms, opt)
	if s == nil {
		return true
	}
	s.earlyAccept = 1 - slack
	s.earlyReject = 1 - slack
	res := s.run()
	return res.Lambda >= 1-slack
}

type solver struct {
	csr *graph.CSR
	opt Options
	obs *Obs // nil-safe one-way telemetry (see Options.Obs)

	// static topology, flattened to CSR so a sweep touches three flat
	// arrays instead of chasing per-node slice headers
	n        int
	edges    []graph.Edge
	arcTo    []int32 // arc a goes to arcTo[a]; its tail is arcTo[a^1]
	arcCap   float64 // uniform capacity
	csrStart []int32 // arcs out of node u are csrArc[csrStart[u]:csrStart[u+1]]
	csrArc   []int32 // outgoing arc ids, grouped by tail node

	// commodities grouped by source
	srcList   []int32   // distinct sources
	bySrc     [][]int   // commodity indices per source (parallel to srcList)
	dstsBySrc [][]int32 // sorted distinct destinations per source (sweep targets)
	comms     []Commodity

	// GK state
	length  []float64 // per arc
	flow    []float64 // per arc, accumulated unscaled
	delta   float64
	demSum  float64
	epsilon float64

	earlyAccept float64 // accept once certified lambda >= this (0 = off)
	earlyReject float64 // reject once upper bound < this (0 = off)

	// warmed is set when seedWarm installed a carried-over length function;
	// it schedules an extra exact dual refresh at phase 1 (the warmed
	// lengths usually certify a near-tight upper bound immediately, which
	// is what makes early rejection cheap on warm starts).
	warmed bool
	// handle marks solves made through a Solver handle; their feasibility
	// runs skip the loose volume exit (see run).
	handle bool

	workers int

	// reusable grouping scratch (see groupCommodities): commIdx is the
	// counting-sorted commodity order that bySrc views slice into, dstFlat
	// the backing for dstsBySrc, srcCount the per-node counters/offsets.
	commIdx  []int
	dstFlat  []int32
	srcCount []int32

	// reusable hot-path state: scratch[i] serves batch slot i during
	// phases and worker i during dual refreshes (never both at once);
	// dualParts collects per-source dual contributions for index-order
	// summation; the closures are built once in newSolver so the phase
	// loop passes pre-existing funcs to the pool instead of allocating
	// a capture per batch.
	scratch    []*sweepScratch
	dualParts  []float64
	batchStart int
	sweepFn    func(i int)
	dualFn     func(worker, gi int)

	// Windowed primal certificate (see primalStep). window holds
	// windowSlots snapshots of flow followed by bestFlow, the feasibility-
	// scaled flow witnessing the best certified λ, in one flat buffer;
	// snapAt[j] is the phase snapshot j was taken at (0 = empty slot).
	window   []float64
	bestFlow []float64
	snapAt   [windowSlots]int

	// phaseAlpha is Σ_i demand_i · dist(src_i, dst_i) read off the phase's
	// own batch trees — the ingredient of the free per-phase dual bound
	// (see run); written by phase, summed in srcList order.
	phaseAlpha float64
}

// sourceBatch is the number of source vertices whose shortest-path trees
// are computed together against one snapshot of the length function. It is
// a fixed constant — NOT the worker count — so the routing decisions, and
// therefore λ, do not depend on how many goroutines run the batch.
//
// Staleness within a batch slows convergence: batch 1 reproduces a pure
// Gauss-Seidel sweep, batch 4 costs ~8% serial time on the benchmark
// instance with the zero-allocation kernel (629ms/549 phases → 652ms/609
// phases, BENCH_mcf.json) but lets one solver occupy up to 4 cores, which
// repays the overhead on any multicore box; batch 8 measured strictly
// worse serially (690ms/626 phases) for parallelism this suite can't use,
// and drift grows with each routed unit (arcs scale by 1+ε per step), so
// stay at 4.
const sourceBatch = 4

// dualRefreshEvery is the exact-dual cadence in phases. Between refreshes
// the free per-phase bound (see run) tracks the optimum to within the
// intra-phase length growth (~ε relative), so the refresh only needs to be
// frequent enough that termination isn't delayed long after the true gap
// closes; 8 costs ~12% of the sweep budget (the seed refreshed every 2nd
// phase, ~50% of it) and moved no benchmark's phase count by more than a
// few phases.
const dualRefreshEvery = 8

// restartWindow and windowSlots shape the windowed primal certificate (see
// primalStep): every restartWindow phases the accumulated flow is
// snapshotted into a ring of windowSlots, so the certificate can restart
// its count from any of the last 8 snapshots (up to 128 phases back).
// Over 60 seeded 24–36-switch RRGs the lifetime bound alone took 18,179
// phases, a ring of 4 took 12,408, 8 took 10,550 and 16 no fewer; on the
// 80-switch benchmark instance 4 slots save nothing (609 phases), 8 cut
// it to 165.
const (
	restartWindow = 16
	windowSlots   = 8
)

func newSolver(csr *graph.CSR, comms []Commodity, opt Options) *solver {
	s := &solver{}
	if !s.init(csr, comms, opt) {
		return nil
	}
	return s
}

// init (re)builds the solver for one instance. A zero solver initializes
// from scratch; a solver that already ran keeps every backing array whose
// capacity still fits, so a handle re-solving a sequence of related
// instances (see Solver) does no steady-state topology allocations — and
// when the edge set is unchanged it skips the CSR arc-array rebuild
// entirely. Returns false when no effective commodities remain.
func (s *solver) init(csr *graph.CSR, comms []Commodity, opt Options) bool {
	s.opt = opt
	s.obs = opt.Obs
	s.arcCap = opt.LinkCapacity
	s.epsilon = opt.Epsilon
	s.workers = parallel.Workers(opt.Workers)
	s.earlyAccept, s.earlyReject = 0, 0
	s.warmed = false
	s.handle = false
	s.demSum = 0
	s.phaseAlpha = 0

	s.comms = s.comms[:0]
	for _, c := range comms {
		if c.Src != c.Dst && c.Demand > 0 {
			s.comms = append(s.comms, c)
			s.demSum += c.Demand
		}
	}
	if len(s.comms) == 0 {
		return false
	}

	// Topology: rebuild the CSR arc arrays only when the edge set actually
	// changed since the previous instance (the arrays are rewritten in
	// place; see buildArcs). The identical-snapshot pointer — the common
	// case when warm-starting across perturbed commodity sets — skips even
	// the edge-list comparison; snapshots are immutable, so pointer
	// equality implies edge-set equality.
	if s.csr != csr {
		edges := csr.Edges()
		if s.n != csr.N() || !slices.Equal(edges, s.edges) {
			s.buildArcs(csr.N(), edges)
		}
		s.csr = csr
	}
	m := len(s.edges)

	s.length = resizeFloat(s.length, 2*m)
	s.flow = resizeFloat(s.flow, 2*m)
	clear(s.flow)
	s.window = resizeFloat(s.window, (windowSlots+1)*2*m)
	s.bestFlow = s.window[windowSlots*2*m:]
	clear(s.bestFlow)
	s.snapAt = [windowSlots]int{}

	s.groupCommodities()

	// Scratch pool: phases index it by batch slot, dual refreshes by
	// worker; size for whichever is larger. Entries survive re-init when
	// the vertex count is unchanged.
	nscratch := min(max(sourceBatch, s.workers), len(s.srcList))
	if len(s.scratch) > 0 && len(s.scratch[0].dist) != s.n {
		s.scratch = s.scratch[:0]
	}
	for len(s.scratch) < nscratch {
		s.scratch = append(s.scratch, newSweepScratch(s.n))
	}
	s.dualParts = resizeFloat(s.dualParts, len(s.srcList))
	if s.sweepFn == nil {
		// The closures capture only the (stable) receiver, so they are
		// built once per solver and survive re-init.
		s.sweepFn = func(i int) {
			gi := s.batchStart + i
			s.sweep(s.scratch[i], s.srcList[gi], s.dstsBySrc[gi])
		}
		s.dualFn = func(worker, gi int) {
			sc := s.scratch[worker]
			s.sweep(sc, s.srcList[gi], s.dstsBySrc[gi])
			var a float64
			for _, ci := range s.bySrc[gi] {
				c := s.comms[ci]
				d := sc.distTo(int32(c.Dst))
				if math.IsInf(d, 1) {
					a = math.Inf(-1) // marker: disconnected commodity
					break
				}
				a += c.Demand * d
			}
			s.dualParts[gi] = a
		}
	}

	// Garg–Könemann initial length δ/c per arc (a warm seed, if any,
	// overwrites this; see seedWarm).
	mm := float64(2 * m)
	s.delta = (1 + s.epsilon) * math.Pow((1+s.epsilon)*mm, -1/s.epsilon)
	s.resetLengthsCold()
	return true
}

func (s *solver) resetLengthsCold() {
	for i := range s.length {
		s.length[i] = s.delta / s.arcCap
	}
}

// buildArcs (re)derives the CSR adjacency — a counting sort of arcs by
// tail node, preserving edge order within each node — writing into the
// solver's existing backing arrays whenever their capacity fits, so a
// topology delta (servers added, links failed) mutates the arc arrays in
// place instead of reallocating them.
func (s *solver) buildArcs(n int, edges []graph.Edge) {
	m := len(edges)
	s.n = n
	s.edges = edges
	s.arcTo = resizeInt32(s.arcTo, 2*m)
	s.csrStart = resizeInt32(s.csrStart, n+1)
	clear(s.csrStart)
	s.csrArc = resizeInt32(s.csrArc, 2*m)
	for _, e := range edges {
		s.csrStart[e.U+1]++
		s.csrStart[e.V+1]++
	}
	for v := 0; v < n; v++ {
		s.csrStart[v+1] += s.csrStart[v]
	}
	cursor := resizeInt32(s.srcCount, n) // srcCount doubles as cursor scratch
	clear(cursor)
	s.srcCount = cursor
	for i, e := range edges {
		s.arcTo[2*i] = int32(e.V)
		s.arcTo[2*i+1] = int32(e.U)
		s.csrArc[s.csrStart[e.U]+cursor[e.U]] = int32(2 * i)
		cursor[e.U]++
		s.csrArc[s.csrStart[e.V]+cursor[e.V]] = int32(2*i + 1)
		cursor[e.V]++
	}
}

// groupCommodities groups the effective commodities by source so one sweep
// serves many demands, and records each source's destination set as its
// sweep's early-exit targets (permutation traffic has ~1 destination per
// source, so a targeted sweep settles a small fraction of the graph).
// Grouping is a counting sort into reusable flat arrays: bySrc and
// dstsBySrc are subslice views of commIdx and dstFlat, which are sized
// up front so the views can never be invalidated by reallocation.
func (s *solver) groupCommodities() {
	n := s.n
	cnt := resizeInt32(s.srcCount, n+1)
	clear(cnt)
	s.srcCount = cnt
	for _, c := range s.comms {
		cnt[c.Src+1]++
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	s.commIdx = resizeInt(s.commIdx, len(s.comms))
	for i, c := range s.comms {
		s.commIdx[cnt[c.Src]] = i
		cnt[c.Src]++
	}
	// cnt[v] is now the END offset of source v's group; the start is the
	// previous source's end (0 for v == 0).
	s.srcList = s.srcList[:0]
	s.bySrc = s.bySrc[:0]
	s.dstsBySrc = s.dstsBySrc[:0]
	if cap(s.dstFlat) < len(s.comms) {
		s.dstFlat = make([]int32, 0, len(s.comms))
	}
	s.dstFlat = s.dstFlat[:0]
	start := int32(0)
	for v := 0; v < n; v++ {
		end := cnt[v]
		if end == start {
			continue
		}
		list := s.commIdx[start:end]
		s.srcList = append(s.srcList, int32(v))
		s.bySrc = append(s.bySrc, list)
		dstStart := len(s.dstFlat)
		for _, ci := range list {
			s.dstFlat = append(s.dstFlat, int32(s.comms[ci].Dst))
		}
		seg := s.dstFlat[dstStart:]
		slices.Sort(seg)
		uniq := seg[:0]
		for i, d := range seg {
			if i == 0 || d != uniq[len(uniq)-1] {
				uniq = append(uniq, d)
			}
		}
		s.dstFlat = s.dstFlat[:dstStart+len(uniq)]
		s.dstsBySrc = append(s.dstsBySrc, s.dstFlat[dstStart:])
		start = end
	}
}

// resizeFloat returns a slice of length n, reusing buf's backing array
// when its capacity allows. Contents are unspecified.
func resizeFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func resizeInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func resizeInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func (s *solver) run() Result {
	if len(s.edges) == 0 {
		// No links at all but demands exist: nothing routable.
		return Result{Lambda: 0, UpperBound: 0}
	}
	solveT := s.obs.solveBegin(len(s.comms))
	defer s.obs.solveEnd(solveT)
	bestLB, bestUB := 0.0, math.Inf(1)
	phases := 0
	for phases < s.opt.MaxPhases {
		// Cooperative cancellation: one poll per phase, so a cancel is
		// observed after at most the phase in flight completes. Both
		// certificates remain valid at any stopping point.
		if s.opt.Interrupt != nil && s.opt.Interrupt() {
			break
		}
		phases++
		phaseT := s.obs.phaseBegin(phases)
		ok := s.phase()
		s.obs.phaseEnd(phaseT)
		if !ok {
			// Some commodity is disconnected: λ = 0. The flow routed
			// before the dead end may already overuse capacity (phases are
			// unscaled), so it is scaled like every witness —
			// Result.ArcFlow is documented "(scaled, feasible)".
			if rho := s.maxOveruse(); rho > 0 {
				s.witness(nil, rho)
			}
			bestLB, bestUB = 0, 0
			break
		}
		bestLB = s.primalStep(phases, bestLB)
		// Free per-phase dual bound: each source's batch-tree distances were
		// computed under lengths ≤ the end-of-phase lengths l (lengths only
		// grow), so phaseAlpha ≤ α(l) and D(l)/phaseAlpha ≥ D(l)/α(l) ≥ λ*
		// — a valid (slightly loose) upper bound costing zero extra sweeps.
		if s.phaseAlpha > 0 {
			if ub := s.volume() / s.phaseAlpha; ub < bestUB {
				bestUB = ub
			}
		}
		// The exact dual certificate costs a full sweep set — as much as a
		// phase — so refresh it sparsely, just often enough to close the
		// intra-phase slack the free bound carries. Certificates stay valid
		// at any cadence: any length function bounds the optimum. Warm
		// starts add a refresh at phase 1: the carried-over lengths usually
		// certify a near-tight bound before any routing happens, which is
		// what lets an infeasible probe reject after a single phase.
		if phases == 2 || phases%dualRefreshEvery == 0 || (s.warmed && phases == 1) {
			s.obs.dualBegin()
			ub := s.dualBound()
			s.obs.dualEnd()
			if ub < bestUB {
				bestUB = ub
			}
		}
		if s.earlyAccept > 0 && bestLB >= s.earlyAccept {
			break
		}
		if s.earlyReject > 0 && bestUB < s.earlyReject {
			break
		}
		if bestLB > 0 && (bestUB-bestLB)/bestUB <= s.opt.Tol {
			break
		}
		if s.volume() >= 1 && bestLB > 0 && !(s.handle && s.earlyAccept > 0) {
			// Canonical GK termination; certificates already computed.
			// Handle-driven feasibility runs skip this loose exit: their
			// warm seeds start near volume 1 (so a 2×Tol exit here would
			// systematically weaken the primal certificate right at the
			// accept threshold), and the windowed certificate makes
			// reaching the primary Tol gap cheap. Plain solves keep it —
			// the canonical cost/quality point — warm or not.
			if (bestUB-bestLB)/bestUB <= 2*s.opt.Tol {
				break
			}
		}
	}
	return Result{
		Lambda:     bestLB,
		UpperBound: bestUB,
		Phases:     phases,
		ArcFlow:    append([]float64(nil), s.bestFlow...),
		Edges:      s.edges,
	}
}

// primalStep folds the phase just routed into the primal certificate:
// given the best certified λ so far, it returns the new best.
//
// Each phase routes every commodity's full demand once, so the flow
// accumulated since snapshot j routes exactly phases−snapAt[j] rounds, and
// scaled down by its worst capacity overuse it is feasible: it certifies
// λ_j = (phases−snapAt[j]) / max_a (flow[a]−snap_j[a])/cap. The lifetime
// flow is the window from phase 0. Taking the best over the lifetime and
// every window is sound with no heuristic, and it sheds the drag of plain
// GK's phases/overuse bound, which charges the burn-in phases' misrouting
// (greedy routing under still-uninformed lengths) against every later
// round. Whichever flow wins is written, scaled, into
// bestFlow, so Result.ArcFlow always witnesses Result.Lambda.
//
// Every restartWindow phases the flow is copied into the oldest ring
// slot. The step reads solver state only, so it is worker-count
// invariant, and it allocates nothing.
//
//jellyvet:hotpath
func (s *solver) primalStep(phases int, best float64) float64 {
	arcs := len(s.flow)
	var win []float64 // base of the winning window; nil = lifetime
	var winOver float64
	if rho := s.maxOveruse(); rho > 0 && float64(phases)/rho > best {
		best, winOver = float64(phases)/rho, rho
	}
	for j, at := range s.snapAt {
		if at == 0 {
			continue
		}
		snap := s.window[j*arcs : (j+1)*arcs]
		over := 0.0
		for a, f := range s.flow {
			if d := f - snap[a]; d > over {
				over = d
			}
		}
		over /= s.arcCap
		if over > 0 && float64(phases-at)/over > best {
			best, win, winOver = float64(phases-at)/over, snap, over
		}
	}
	if winOver > 0 {
		s.witness(win, winOver)
	}
	if phases%restartWindow == 0 {
		j := (phases/restartWindow - 1) % windowSlots
		copy(s.window[j*arcs:(j+1)*arcs], s.flow)
		s.snapAt[j] = phases
	}
	return best
}

// witness writes the flow routed since base (nil = since phase 0), scaled
// down by its capacity overuse, into bestFlow.
//
//jellyvet:hotpath
func (s *solver) witness(base []float64, over float64) {
	for a, f := range s.flow {
		if base != nil {
			f -= base[a]
		}
		s.bestFlow[a] = f / over
	}
}

// phase routes one full round of demands (every commodity once). Returns
// false if some commodity has no path.
//
// Sources are processed in fixed batches of sourceBatch: the batch's
// shortest-path trees are computed concurrently against the length
// function as it stood at batch start (lengths are only read during the
// sweep), then flow is applied source by source in srcList order. Within a
// batch later sources route on slightly stale trees — the certificates do
// not care (the primal bound holds for ANY flow, the dual for ANY length
// function), and batch-start snapshots make the routing, and hence λ,
// independent of the worker count.
//
// Each batch slot i sweeps into s.scratch[i], so the whole batch's trees
// stay alive while flow is applied, and nothing is allocated: the sweeps
// reuse slot scratch, the route walk applies flow directly off the parent
// arcs, and s.sweepFn is a closure built once at solver construction.
//
//jellyvet:hotpath
func (s *solver) phase() bool {
	for start := 0; start < len(s.srcList); start += sourceBatch {
		end := start + sourceBatch
		if end > len(s.srcList) {
			end = len(s.srcList)
		}
		s.batchStart = start
		s.obs.batch()
		parallel.ForEach(s.workers, end-start, s.sweepFn)
		for gi := start; gi < end; gi++ {
			src := s.srcList[gi]
			sc := s.scratch[gi-start]
			// Record this source's dual contribution off the batch tree
			// (before any of its routing grows the lengths further).
			var a float64
			for _, ci := range s.bySrc[gi] {
				c := s.comms[ci]
				d := sc.distTo(int32(c.Dst))
				if math.IsInf(d, 1) {
					return false
				}
				a += c.Demand * d
			}
			s.dualParts[gi] = a
			for _, ci := range s.bySrc[gi] {
				c := s.comms[ci]
				dst := int32(c.Dst)
				remaining := c.Demand
				// Route along the current tree path; if the demand exceeds
				// one bottleneck step (lengths grew), recompute the tree.
				// Reachability was checked on the batch tree above and is
				// static, so recomputed trees always reach dst.
				for remaining > 0 {
					// Bottleneck-limited step: with uniform arc capacities the
					// path bottleneck is a single arc's capacity.
					step := math.Min(remaining, s.arcCap)
					s.applyFlow(sc, dst, step)
					remaining -= step
					if remaining > 0 {
						s.sweep(sc, src, s.dstsBySrc[gi])
					}
				}
			}
		}
	}
	var alpha float64
	for _, a := range s.dualParts {
		alpha += a
	}
	s.phaseAlpha = alpha
	return true
}

// applyFlow walks the tree path into dst (parent arcs back to the source)
// and routes step units along it, updating flows and GK lengths in place.
// Every vertex on the path was settled by the sweep, so the walk is over
// final parents.
//
//jellyvet:hotpath
func (s *solver) applyFlow(sc *sweepScratch, dst int32, step float64) {
	for v := dst; sc.parentArc[v] >= 0; {
		a := sc.parentArc[v]
		s.flow[a] += step
		s.length[a] *= 1 + s.epsilon*step/s.arcCap
		// Move to the arc's tail: arc a goes tail->head where head = arcTo[a].
		v = s.arcTo[a^1]
	}
}

//jellyvet:hotpath
func (s *solver) maxOveruse() float64 {
	rho := 0.0
	for _, f := range s.flow {
		if r := f / s.arcCap; r > rho {
			rho = r
		}
	}
	return rho
}

// dualBound computes D(l) / α(l) where D is the length volume and α(l) is
// the minimum over length functions of Σ_i demand_i · dist_l(src_i, dst_i).
// By LP duality every length function yields an upper bound on λ*.
// The sweeps only read lengths, so all source trees run concurrently —
// each worker reusing its own scratch (s.dualFn writes s.dualParts[gi]) —
// and per-source contributions are summed in srcList order to keep the
// value independent of scheduling.
//
//jellyvet:hotpath
func (s *solver) dualBound() float64 {
	parallel.ForEachWorker(s.workers, len(s.srcList), s.dualFn)
	var alpha float64
	for _, a := range s.dualParts {
		if math.IsInf(a, -1) {
			return 0
		}
		alpha += a
	}
	if alpha <= 0 {
		return math.Inf(1)
	}
	return s.volume() / alpha
}

func (s *solver) volume() float64 {
	var d float64
	for _, l := range s.length {
		d += l * s.arcCap
	}
	return d
}
