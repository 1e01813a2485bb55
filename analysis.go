package jellyfish

import (
	"jellyfish/internal/bisection"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/metrics"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/traffic"
)

// RoutingScheme selects the forwarding plane for packet-level evaluation.
type RoutingScheme int

const (
	// ECMP8 is 8-way equal-cost multipath over shortest paths.
	ECMP8 RoutingScheme = iota
	// ECMP64 is 64-way ECMP.
	ECMP64
	// KSP8 is 8-shortest-path routing: the first 8 loopless paths in
	// (hop count, lexicographic) order.
	KSP8
)

// String names the scheme.
func (r RoutingScheme) String() string {
	switch r {
	case ECMP8:
		return "ECMP-8"
	case ECMP64:
		return "ECMP-64"
	case KSP8:
		return "8-shortest-paths"
	default:
		return "unknown"
	}
}

// TransportProtocol selects the congestion-control model.
type TransportProtocol = flowsim.Protocol

// Transport protocols evaluated in the paper's Table 1.
const (
	TCP1Flow       = flowsim.TCP1
	TCP8Flows      = flowsim.TCP8
	MPTCP8Subflows = flowsim.MPTCP8
)

// PacketLevelResult reports a flow-level simulation outcome.
type PacketLevelResult struct {
	// MeanThroughput is the average per-server throughput as a fraction of
	// NIC rate (the paper's Table-1 metric).
	MeanThroughput float64
	// FlowThroughputs lists per-flow rates (Fig. 13's series).
	FlowThroughputs []float64
	// Fairness is Jain's index over FlowThroughputs.
	Fairness float64
}

// PacketLevelThroughput runs the flow-level transport simulator (the
// paper's §5 methodology, flow-level substitution per DESIGN.md §8) with
// the given routing scheme and transport on one random permutation. The
// optional trailing argument bounds route-construction parallelism
// (default: all cores); the result is identical either way.
func PacketLevelThroughput(t *Topology, scheme RoutingScheme, proto TransportProtocol, seed uint64, workers ...int) PacketLevelResult {
	src := rng.New(seed)
	pat := traffic.RandomPermutation(t.ServerSwitches(), src.Split("traffic"))
	table := buildTable(t, pat, scheme, src.Split("routes"), firstOrZero(workers))
	res := flowsim.Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto))
	return PacketLevelResult{
		MeanThroughput:  res.Mean(),
		FlowThroughputs: res.FlowRate,
		Fairness:        metrics.JainFairness(res.FlowRate),
	}
}

func buildTable(t *Topology, pat *traffic.Pattern, scheme RoutingScheme, src *rng.Source, workers int) *routing.Table {
	var sd [][2]int
	for _, f := range pat.Flows {
		sd = append(sd, [2]int{f.SrcSwitch, f.DstSwitch})
	}
	pairs := routing.PairsForCommodities(sd)
	switch scheme {
	case ECMP64:
		return routing.ECMP(t.Graph, pairs, 64, src, workers)
	case KSP8:
		return routing.KShortest(t.Graph, pairs, 8, workers)
	default:
		return routing.ECMP(t.Graph, pairs, 8, src, workers)
	}
}

// firstOrZero unwraps an optional trailing workers argument (0 = all
// cores).
func firstOrZero(workers []int) int {
	if len(workers) > 0 {
		return workers[0]
	}
	return 0
}

// LinkPathCounts returns, for each directed switch-switch link, the number
// of distinct routing paths crossing it under the given scheme and one
// random permutation's route table — sorted ascending (Fig. 9's series).
func LinkPathCounts(t *Topology, scheme RoutingScheme, seed uint64, workers ...int) []int {
	src := rng.New(seed)
	pat := traffic.RandomPermutation(t.ServerSwitches(), src.Split("traffic"))
	table := buildTable(t, pat, scheme, src.Split("routes"), firstOrZero(workers))
	return routing.RankedLinkLoads(t.Graph, table)
}

// NormalizedBisectionBound returns the Bollobás lower bound on the
// normalized bisection bandwidth of RRG(switches, ports, networkDegree):
// crossing capacity divided by the NIC bandwidth of half the servers.
func NormalizedBisectionBound(switches, ports, networkDegree int) float64 {
	return bisection.RRGNormalizedBisection(switches, ports, networkDegree)
}

// ServersAtFullBisection returns the largest server count `switches`
// k-port switches support at normalized bisection ≥ 1 under the Bollobás
// bound, with the chosen network degree.
func ServersAtFullBisection(switches, ports int) (servers, networkDegree int) {
	return bisection.MaxServersAtFullBisection(switches, ports)
}

// EquipmentForServers returns the minimum total port count of a Jellyfish
// of k-port switches carrying `servers` servers at full bisection
// bandwidth (0 if infeasible) — the Fig. 2(b) cost curve.
func EquipmentForServers(servers, ports int) int {
	cost, _, _ := bisection.MinPortsForServers(servers, ports)
	return cost
}

// MeasuredBisection computes a heuristic (Kernighan–Lin) server-balanced
// minimum bisection of an explicit topology, normalized by half the
// servers' NIC bandwidth and capped at 1.
func MeasuredBisection(t *Topology, seed uint64) float64 {
	cut, _ := bisection.KLBisection(t.Graph, t.Servers, 4, rng.New(seed))
	servers := t.NumServers()
	if servers == 0 {
		return 0
	}
	return metrics.Clamp01(float64(cut) / (float64(servers) / 2))
}
