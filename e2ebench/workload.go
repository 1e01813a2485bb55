package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"jellyfish/internal/service"
)

// An op is one unit of client work: a synchronous planning request, or,
// for capacity-jobs, one submit → SSE done → /result round trip.
type op struct {
	kind string // service op name: design, evaluate, whatif, rewire-plan, capacity-search
	body []byte
	req  any // the typed request behind body, for library checks and the traced replay
	// keep retains the first response: a later op repeats this body, or
	// a library check reads it after the timed phase.
	keep  bool
	check bool // result compared with the public library after the timed phase

	mu   sync.Mutex
	resp []byte // first successful response (kept ops only)
}

// record stores the first response of a kept op and reports whether a
// later response equals it byte for byte.
func (o *op) record(b []byte) bool {
	if !o.keep {
		return true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.resp == nil {
		o.resp = b
		return true
	}
	return string(o.resp) == string(b)
}

func (o *op) firstResp() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.resp
}

// A workload is a seeded, fixed sequence of ops. Clients take positions
// from one shared counter, so the daemon sees the same request order on
// every run of a seed (up to the interleaving of the two clients).
// Repeats are schedule entries that point at an earlier op.
type workload struct {
	name     string
	params   string // generator parameters, printed with every result
	ops      []*op
	schedule []int // op index at each position; wraps around when exhausted
	warmup   []*op // executed during set-up, before the timed phase
	// sampleCap sizes each client's preallocated latency buffer.
	sampleCap int
}

func (w *workload) opAt(pos int) *op { return w.ops[w.schedule[pos%len(w.schedule)]] }

func (w *workload) add(o *op) int {
	w.ops = append(w.ops, o)
	w.schedule = append(w.schedule, len(w.ops)-1)
	return len(w.ops) - 1
}

// repeat schedules an exact repeat of an earlier op's body.
func (w *workload) repeat(i int) {
	w.ops[i].keep = true
	w.schedule = append(w.schedule, i)
}

var workloadNames = []string{"plan-mix", "transport-eval", "capacity-jobs", "hot-path"}

func newWorkload(name string, seed uint64) (*workload, error) {
	r := rand.New(rand.NewPCG(seed, 0x6a656c6c79))
	switch name {
	case "plan-mix":
		return genPlanMix(r), nil
	case "transport-eval":
		return genTransportEval(r), nil
	case "capacity-jobs":
		return genCapacityJobs(r), nil
	case "hot-path":
		return genHotPath(r), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func design(switches, ports, degree int, seed uint64) *service.DesignSpec {
	return &service.DesignSpec{Switches: switches, Ports: ports, NetworkDegree: degree, Seed: seed}
}

func newSeed(r *rand.Rand) uint64 { return r.Uint64N(1 << 31) }

func designOp(d *service.DesignSpec) *op {
	return &op{kind: "design", body: mustJSON(d), req: d}
}

func evaluateOp(req *service.EvaluateRequest) *op {
	return &op{kind: "evaluate", body: mustJSON(req), req: req}
}

func whatifOp(req *service.WhatIfRequest) *op {
	return &op{kind: "whatif", body: mustJSON(req), req: req}
}

func rewireOp(before, after *service.DesignSpec) *op {
	req := &service.RewireRequest{Before: service.TopologySpec{Design: before}, After: service.TopologySpec{Design: after}}
	return &op{kind: "rewire-plan", body: mustJSON(req), req: req}
}

func capacityOp(req *service.CapacitySearchRequest) *op {
	return &op{kind: "capacity-search", body: mustJSON(req), req: req}
}

// planMixCycles bounds the pre-generated plan-mix schedule (20 ops per
// cycle); a run that exhausts it wraps around into repeats.
const planMixCycles = 400

// genPlanMix: sync exact planning. Each 20-op cycle holds 9 exact
// evaluates on fresh 24–36-switch RRGs (response-cache misses), a 4-request
// what-if chain family over one base whose requests share prefixes (chain
// hits), a bisection and a spectral estimator evaluate, a design, a
// rewire plan and 3 exact repeats (15%). Sizes cycle through a fixed list,
// so every seed runs the same composition on different random graphs.
func genPlanMix(r *rand.Rand) *workload {
	w := &workload{
		name:      "plan-mix",
		params:    "cycle=20 ops: 9 exact evaluate (switches 24-36 cycling, ports 8|10, degree ports-3, trials 1), 4 whatif (base 32x8x5, 2-4 steps sharing prefixes), 1 bisection + 1 spectral evaluate, 1 design, 1 rewire-plan (28->32 switches), 3 exact repeats",
		sampleCap: 1 << 16,
	}
	// Fixed warm-up: one op of each kind on small fixed topologies.
	warm := design(24, 8, 5, 1)
	w.warmup = []*op{
		designOp(warm),
		evaluateOp(&service.EvaluateRequest{Topology: service.TopologySpec{Design: warm}, Seed: 1, Trials: 1}),
		evaluateOp(&service.EvaluateRequest{Topology: service.TopologySpec{Design: warm}, Seed: 1, Trials: 1,
			Estimator: &service.EstimatorSpec{Kind: "bisection"}}),
		whatifOp(&service.WhatIfRequest{Base: service.TopologySpec{Design: warm}, Seed: 1,
			Scenarios: []service.Scenario{{FailLinks: &service.FailLinksOp{Fraction: 0.05, Seed: 1}}}}),
		rewireOp(design(20, 8, 5, 1), warm),
	}
	sizes := []int{24, 27, 30, 33, 36}
	var prevEval, prevChain int
	for c := 0; c < planMixCycles; c++ {
		evals := make([]*service.EvaluateRequest, 9)
		for k := range evals {
			sw := sizes[(c*9+k)%len(sizes)]
			ports := 8 + 2*((c+k)%2)
			evals[k] = &service.EvaluateRequest{
				Topology: service.TopologySpec{Design: design(sw, ports, ports-3, newSeed(r))},
				Seed:     newSeed(r), Trials: 1,
			}
		}
		checked := r.IntN(len(evals))
		base := service.TopologySpec{Design: design(32, 8, 5, newSeed(r))}
		chainSeed := newSeed(r)
		s1 := service.Scenario{FailLinks: &service.FailLinksOp{Fraction: 0.05, Seed: newSeed(r)}}
		s2 := service.Scenario{Expand: &service.ExpandOp{Switches: 2, Ports: 8, NetworkDegree: 5, Seed: newSeed(r)}}
		s3 := service.Scenario{Miswire: &service.MiswireOp{Count: 2, Seed: newSeed(r)}}
		s4 := service.Scenario{FailSwitches: &service.FailSwitchesOp{Fraction: 0.05, Seed: newSeed(r)}}
		chain := func(sc ...service.Scenario) *op {
			return whatifOp(&service.WhatIfRequest{Base: base, Seed: chainSeed, Scenarios: sc})
		}
		estimator := func(kind string) *op {
			return evaluateOp(&service.EvaluateRequest{
				Topology: service.TopologySpec{Design: design(sizes[c%len(sizes)], 10, 7, newSeed(r))},
				Seed:     newSeed(r), Trials: 1,
				Estimator: &service.EstimatorSpec{Kind: kind},
			})
		}
		rwSeed := newSeed(r)

		e := 0
		evalNext := func() int {
			o := evaluateOp(evals[e])
			o.check = e == checked
			o.keep = o.check
			e++
			return w.add(o)
		}
		first := evalNext()
		w.add(chain(s1))
		evalNext()
		est := estimator("bisection")
		est.check, est.keep = true, true
		w.add(est)
		evalNext()
		d := w.add(designOp(design(sizes[(c+2)%len(sizes)], 8, 5, newSeed(r))))
		evalNext()
		w.add(chain(s1, s2))
		evalNext()
		w.add(rewireOp(design(28, 8, 5, rwSeed), design(32, 8, 5, rwSeed)))
		evalNext()
		c3 := chain(s1, s2, s3)
		c3.check, c3.keep = c%4 == 0, c%4 == 0
		deep := w.add(c3)
		evalNext()
		if c == 0 {
			prevEval, prevChain = first, deep
		}
		w.repeat(prevEval)
		evalNext()
		w.add(chain(s1, s4))
		evalNext()
		est = estimator("spectral")
		est.check, est.keep = true, true
		w.add(est)
		w.repeat(prevChain)
		w.repeat(d)
		prevEval, prevChain = first, deep
	}
	return w
}

// transportSizes are the switch counts transport-eval's families cycle
// through (12-port switches, network degree 8).
var transportSizes = []int{64, 72, 80, 88, 96, 104, 112, 128}

var transportSpecs = []service.TransportSpec{
	{Protocol: "tcp8", Routing: "ecmp8"},
	{Protocol: "mptcp8", Routing: "ksp8"},
	{Protocol: "tcp1", Routing: "ecmp64"},
}

// transportBurst is how many requests each transport-eval family serves.
const transportBurst = 6

const transportRequests = 12000

// genTransportEval: sync /v1/evaluate with transport specs over a stream
// of fresh 64–128-switch families. Even and odd schedule positions walk
// two interleaved family sequences, and each family serves six
// consecutive requests of its sequence, two per spec, each with a fresh
// traffic seed: the response cache misses while the family's compiled
// routing instance (the sim tier) is reused five times out of six.
// Request j thus evaluates family 2(j/12) + j%2 under spec (j/2)%3.
// Because a family's requests come in one burst, how warm its route
// memo gets does not depend on how many requests a run completes, and a
// run averages over hundreds of random graphs.
func genTransportEval(r *rand.Rand) *workload {
	w := &workload{
		name:      "transport-eval",
		params:    fmt.Sprintf("request j: family f=2(j/%d)+j%%2 with switches %v[f%%%d], ports 12, degree 8 and a fresh seed per family; spec (j/2)%%3 of tcp8/ecmp8, mptcp8/ksp8, tcp1/ecmp64; fresh traffic seed, trials 1", 2*transportBurst, transportSizes, len(transportSizes)),
		sampleCap: 1 << 17,
	}
	// Warm-up: each spec once on two fixed families outside the workload's.
	for _, sw := range []int{64, 96} {
		for i := range transportSpecs {
			w.warmup = append(w.warmup, evaluateOp(&service.EvaluateRequest{
				Topology: service.TopologySpec{Design: design(sw, 12, 8, 1)}, Seed: 1, Trials: 1, Transport: &transportSpecs[i],
			}))
		}
	}
	fams := make([]*service.DesignSpec, transportRequests/transportBurst)
	for f := range fams {
		fams[f] = design(transportSizes[f%len(transportSizes)], 12, 8, newSeed(r))
	}
	// One seeded request in every 96 is checked against the library; the
	// first block's check falls early, so even a short run checks one.
	const checkEvery = 96
	checked := r.IntN(8)
	for j := 0; j < transportRequests; j++ {
		if j > 0 && j%checkEvery == 0 {
			checked = j + r.IntN(checkEvery)
		}
		o := evaluateOp(&service.EvaluateRequest{
			Topology: service.TopologySpec{Design: fams[2*(j/(2*transportBurst))+j%2]},
			Seed:     newSeed(r), Trials: 1, Transport: &transportSpecs[(j/2)%len(transportSpecs)],
		})
		o.check, o.keep = j == checked, j == checked
		w.add(o)
	}
	return w
}

// capacitySizes are the switch counts capacity-jobs' inventories cycle
// through (6-port switches).
var capacitySizes = []int{20, 21, 22, 23}

const capacityJobs = 8000

// genCapacityJobs: capacity-search jobs over a stream of fresh 20–23-switch
// inventories of 6-port switches. Even and odd schedule positions walk
// two interleaved inventory sequences, and each inventory serves four
// consecutive jobs of its sequence, one per variant v (trials 1 + v%2,
// bisection screening when v >= 2), each with a fresh slack in
// [0.02, 0.05): the response cache misses while the family is reused
// three times out of four. Job j thus searches inventory 2(j/8) + j%2 in
// variant (j/2)%4. Concurrent jobs search different inventories, a run
// averages the seed-dependent cost of a hundred or more random graphs,
// and every 16 jobs cover each size in each variant, so the mix does not
// depend on how many jobs a run completes. Small inventories keep a job
// near 25 ms, so a run completes hundreds.
func genCapacityJobs(r *rand.Rand) *workload {
	w := &workload{
		name:      "capacity-jobs",
		params:    fmt.Sprintf("job j: inventory i=2(j/8)+j%%2 with switches %v[i%%%d] x 6 ports and a fresh seed per inventory, variant v=(j/2)%%4 with trials 1+v%%2 and bisection screening when v>=2, fresh slack in [0.02,0.05)", capacitySizes, len(capacitySizes)),
		sampleCap: 1 << 16,
	}
	// Warm-up: four fixed jobs, two inventories outside the workload's,
	// each searched unscreened and screened.
	for _, sw := range []int{20, 22} {
		for _, est := range []*service.EstimatorSpec{nil, {Kind: "bisection"}} {
			w.warmup = append(w.warmup, capacityOp(&service.CapacitySearchRequest{Switches: sw, Ports: 6, Trials: 1, Seed: 1, Estimator: est}))
		}
	}
	seeds := make([]uint64, capacityJobs/4)
	for i := range seeds {
		seeds[i] = newSeed(r)
	}
	for j := 0; j < capacityJobs; j++ {
		inv, variant := 2*(j/8)+j%2, (j/2)%4
		req := &service.CapacitySearchRequest{
			Switches: capacitySizes[inv%len(capacitySizes)], Ports: 6, Trials: 1 + variant%2,
			Slack: 0.02 + float64(r.IntN(30000))/1e6, Seed: seeds[inv],
		}
		if variant >= 2 {
			req.Estimator = &service.EstimatorSpec{Kind: "bisection"}
		}
		w.add(capacityOp(req))
	}
	return w
}

// genHotPath: 48 distinct small design/evaluate/whatif/rewire bodies,
// all executed once during set-up, then requested in a seeded order so
// every timed request is a response-cache hit.
func genHotPath(r *rand.Rand) *workload {
	w := &workload{
		name:      "hot-path",
		params:    "48 bodies: 12 design (12-23 switches x 6 ports), 16 exact evaluate (16-19 switches), 12 whatif (16 switches, 1 failLinks step), 8 rewire-plan (14->16 switches); all cached during set-up",
		sampleCap: 1 << 20,
	}
	for i := 0; i < 12; i++ {
		w.ops = append(w.ops, designOp(design(12+i, 6, 4, newSeed(r))))
	}
	for i := 0; i < 16; i++ {
		w.ops = append(w.ops, evaluateOp(&service.EvaluateRequest{
			Topology: service.TopologySpec{Design: design(16+i%4, 6, 4, newSeed(r))}, Seed: newSeed(r), Trials: 1,
		}))
	}
	for i := 0; i < 12; i++ {
		w.ops = append(w.ops, whatifOp(&service.WhatIfRequest{
			Base: service.TopologySpec{Design: design(16, 6, 4, newSeed(r))}, Seed: newSeed(r),
			Scenarios: []service.Scenario{{FailLinks: &service.FailLinksOp{Fraction: 0.1, Seed: newSeed(r)}}},
		}))
	}
	for i := 0; i < 8; i++ {
		s := newSeed(r)
		w.ops = append(w.ops, rewireOp(design(14, 6, 4, s), design(16, 6, 4, s)))
	}
	for _, o := range w.ops {
		o.keep = true
	}
	w.warmup = w.ops
	w.schedule = r.Perm(len(w.ops))
	return w
}
