package main

import (
	"encoding/json"
	"fmt"
	"math"

	"jellyfish"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/service"
	"jellyfish/internal/traffic"
)

// checkSample recomputes the seeded sample of completed ops (ops flagged
// check among the first executed schedule positions) through the public
// library and returns one error per op whose response differs. With
// wrong set, every expected value is nudged by one ulp, so every checked
// op must fail.
func checkSample(w *workload, executed int, wrong bool) []error {
	var errs []error
	seen := map[*op]bool{}
	for pos := 0; pos < min(executed, len(w.schedule)); pos++ {
		o := w.opAt(pos)
		if !o.check || seen[o] {
			continue
		}
		seen[o] = true
		resp := o.firstResp()
		if resp == nil {
			continue // the op failed; already counted
		}
		if err := checkOp(o, resp, wrong); err != nil {
			errs = append(errs, fmt.Errorf("schedule position %d (%s): %w", pos, o.kind, err))
		}
	}
	return errs
}

func nudge(x float64, wrong bool) float64 {
	if wrong {
		return math.Nextafter(x, math.Inf(1))
	}
	return x
}

func checkOp(o *op, resp []byte, wrong bool) error {
	switch req := o.req.(type) {
	case *service.EvaluateRequest:
		var got service.EvaluateResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return err
		}
		if len(got.Throughputs) != req.Trials {
			return fmt.Errorf("%d throughputs for %d trials", len(got.Throughputs), req.Trials)
		}
		top := jellyfish.New(designConfig(req.Topology.Design))
		var compiled *routing.Compiled
		var sim *flowsim.Sim
		if req.Transport != nil {
			compiled = routing.NewCompiled(top.Graph)
			sim = flowsim.NewSim(0, top.NumServers())
		}
		for i := 0; i < req.Trials; i++ {
			seed := req.Seed + uint64(i)
			var want float64
			switch {
			case req.Transport != nil:
				want = transportThroughput(top, compiled, sim, req.Transport, seed)
			case req.Estimator != nil:
				lo, hi, err := jellyfish.EstimateThroughput(top, req.Estimator.Kind, req.Estimator.Sample, seed)
				if err != nil {
					return err
				}
				if len(got.Bounds) != req.Trials || got.Bounds[i] != [2]float64{nudge(lo, wrong), hi} {
					return fmt.Errorf("trial %d: bounds %v, library gives [%v %v]", i, got.Bounds, lo, hi)
				}
				want = lo
			default:
				want = jellyfish.OptimalThroughput(top, seed, 1)
			}
			if want = nudge(want, wrong); got.Throughputs[i] != want {
				return fmt.Errorf("trial %d: throughput %v, library gives %v", i, got.Throughputs[i], want)
			}
		}
		return nil
	case *service.WhatIfRequest:
		var got service.WhatIfResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return err
		}
		if len(got.Steps) != len(req.Scenarios)+1 {
			return fmt.Errorf("%d steps for %d scenarios", len(got.Steps), len(req.Scenarios))
		}
		top := jellyfish.New(designConfig(req.Base.Design))
		ev := jellyfish.NewWhatIfEvaluator(1)
		for i, st := range got.Steps {
			if i > 0 {
				applyScenario(top, &req.Scenarios[i-1])
			}
			want := nudge(ev.OptimalThroughput(top, req.Seed), wrong)
			if st.Throughput != want || st.Switches != top.NumSwitches() || st.Servers != top.NumServers() || st.Links != top.NumLinks() {
				return fmt.Errorf("step %d: got %+v, library gives throughput %v over %d switches, %d servers, %d links",
					i, st, want, top.NumSwitches(), top.NumServers(), top.NumLinks())
			}
		}
		return nil
	}
	return fmt.Errorf("no library check for %T", o.req)
}

func designConfig(d *service.DesignSpec) jellyfish.Config {
	return jellyfish.Config{Switches: d.Switches, Ports: d.Ports, NetworkDegree: d.NetworkDegree, Seed: d.Seed}
}

// applyScenario applies one what-if step with the library calls the
// service documents for each scenario kind.
func applyScenario(top *jellyfish.Topology, sc *service.Scenario) {
	switch {
	case sc.FailLinks != nil:
		jellyfish.FailRandomLinks(top, sc.FailLinks.Fraction, sc.FailLinks.Seed)
	case sc.FailSwitches != nil:
		jellyfish.FailRandomSwitches(top, sc.FailSwitches.Fraction, sc.FailSwitches.Seed)
	case sc.Miswire != nil:
		jellyfish.SimulateMiswirings(top, sc.Miswire.Count, sc.Miswire.Seed)
	case sc.Expand != nil:
		e := sc.Expand
		jellyfish.Expand(top, e.Switches, e.Ports, e.NetworkDegree, e.Seed)
	}
}

// transportThroughput is one transport trial derived the documented way:
// rng.New(seed).Split("transport") feeds the traffic permutation, the
// route choice and (for hashed-subflow protocols) the simulator.
func transportThroughput(top *jellyfish.Topology, compiled *routing.Compiled, sim *flowsim.Sim, spec *service.TransportSpec, seed uint64) float64 {
	pat, table, proto, src := transportTrial(top, compiled, spec, seed)
	return sim.Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto)).Mean()
}

// transportTrial builds one trial's traffic pattern and route table.
func transportTrial(top *jellyfish.Topology, compiled *routing.Compiled, spec *service.TransportSpec, seed uint64) (*traffic.Pattern, *routing.Table, flowsim.Protocol, *rng.Source) {
	src := rng.New(seed).Split("transport")
	pat := traffic.RandomPermutation(top.ServerSwitchesInto(nil), src.Split("traffic"))
	pairs := routing.PairsForPattern(pat)
	var table *routing.Table
	switch spec.Routing {
	case "ecmp8":
		table = compiled.ECMP(pairs, 8, src.Split("routes"), 1)
	case "ecmp64":
		table = compiled.ECMP(pairs, 64, src.Split("routes"), 1)
	default:
		table = compiled.KShortest(pairs, 8, 1)
	}
	return pat, table, transportProtocol(spec), src
}

func transportProtocol(spec *service.TransportSpec) flowsim.Protocol {
	switch spec.Protocol {
	case "tcp1":
		return flowsim.TCP1
	case "tcp8":
		return flowsim.TCP8
	}
	return flowsim.MPTCP8
}
