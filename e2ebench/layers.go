package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jellyfish"
	"jellyfish/internal/flowsim"
	"jellyfish/internal/mcf"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/service"
	"jellyfish/internal/telemetry"
	"jellyfish/internal/traffic"
)

// Per-layer metrics come from outside the daemon in three ways: deltas
// of its own GET /metrics counters and histograms across the timed phase
// (the "m" layers below, which include the capacity jobs' capsearch
// probe and mcf solve times); the span trees the daemon recorded for
// each capacity job, read from GET /v1/trace/{id} after the timed phase
// (the "t" layers: per-search times by kind); and spans the benchmark
// records around direct calls into each layer's public functions while
// replaying the timed phase's sync ops in order (the "r" layers). The
// replay mirrors the service's response, chain and sim cache tiers, so
// it re-runs only the work the daemon executed cold. It runs
// single-threaded after the daemon has stopped, so its times carry none
// of the contention of the timed phase.

// predictions records, for every layer, which end-to-end metric it
// should move on which workloads, and on which workloads it should leave
// every end-to-end metric unchanged. Printed with every traced run. The
// gated metrics are cpu_ms_per_op and allocs_per_op; the wall-clock ones
// (ops_per_s, p50_ms, p90_ms) move with them where the host lets them.
var predictions = []struct{ layer, moves, flat string }{
	{"service.path (m) + codec (r)", "cpu_ms_per_op, allocs_per_op, p50_ms on hot-path", "plan-mix, transport-eval, capacity-jobs (a few % of request time)"},
	{"service.queue_wait (m)", "p50_ms, p90_ms on plan-mix, transport-eval, capacity-jobs (two clients share two shard workers)", "hot-path"},
	{"service cache tiers (m)", "cpu_ms_per_op: chain on plan-mix, sim on transport-eval, family on capacity-jobs", "hot-path (the response tier always hits)"},
	{"topology (r)", "cpu_ms_per_op on plan-mix", "transport-eval, capacity-jobs, hot-path"},
	{"routing, flowsim (r)", "cpu_ms_per_op, allocs_per_op on transport-eval", "plan-mix, capacity-jobs, hot-path"},
	{"mcf (m, r)", "cpu_ms_per_op on plan-mix, capacity-jobs (mcf counters count capacity-search solves only)", "transport-eval, hot-path"},
	{"whatif (r)", "cpu_ms_per_op on plan-mix", "transport-eval, capacity-jobs, hot-path"},
	{"capsearch (m, t)", "cpu_ms_per_op on capacity-jobs", "plan-mix, transport-eval, hot-path"},
	{"estimate (r)", "cpu_ms_per_op on plan-mix; on capacity-jobs inside capsearch screening", "transport-eval, hot-path"},
	{"persist, jobs (m, client)", "cpu_ms_per_op, allocs_per_op on capacity-jobs", "plan-mix, transport-eval, hot-path"},
	{"unattributed_share", "trends to 0 as spans inside the program cover more of exec", "-"},
}

// A promSample is one scrape of GET /metrics: series (name plus label
// set) to value.
type promSample map[string]float64

func scrape(c *client) (promSample, error) {
	status, b, err := c.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", status)
	}
	s := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

func (s promSample) sub(before promSample) promSample {
	d := promSample{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the named metric whose labels contain all of
// the given label pairs (e.g. `tier="resp"`).
func (s promSample) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		n, l, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		ok := true
		for _, want := range labels {
			ok = ok && strings.Contains(l, want)
		}
		if ok {
			t += v
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A phase is what the timed phase left for the layer breakdown.
type phase struct {
	w        *workload
	ops      int // completed ops
	executed int // schedule positions handed out
	// reqTime is the clients' summed request time: op latencies, plus
	// the sync-endpoint checks that follow each capacity job.
	reqTime time.Duration
	jobs    clientStats
	// jobTraces are the capacity jobs' span trees the daemon still held.
	jobTraces []jobTrace
	delta     promSample // /metrics after minus before
}

// A jobRef is one completed capacity job of the timed phase and the
// number of progress frames (one per probe) its event stream carried.
type jobRef struct {
	id     string
	o      *op
	frames int
}

// A jobTrace is a capacity job's span tree as the daemon recorded it on
// its shard worker, with the job's result bytes.
type jobTrace struct {
	ref    jobRef
	trace  *telemetry.Trace
	result []byte
}

// fetchJobTraces reads each job's span tree and result. Jobs the
// daemon's bounded job store has already evicted (410 Gone) are skipped;
// layer totals are scaled from the jobs read to all jobs executed.
func fetchJobTraces(c *client, refs []jobRef) ([]jobTrace, error) {
	var out []jobTrace
	for _, r := range refs {
		status, b, err := c.call(http.MethodGet, "/v1/trace/"+r.id, nil)
		if err != nil {
			return nil, fmt.Errorf("GET /v1/trace/%s: %w", r.id, err)
		}
		if status == http.StatusGone {
			continue
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET /v1/trace/%s: status %d: %s", r.id, status, firstLine(b))
		}
		var tr service.TraceResponse
		if err := json.Unmarshal(b, &tr); err != nil {
			return nil, fmt.Errorf("decoding the trace of job %s: %w", r.id, err)
		}
		status, res, err := c.call(http.MethodGet, "/v1/jobs/"+r.id+"/result", nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("GET result of job %s: status %d, %v", r.id, status, err)
		}
		out = append(out, jobTrace{ref: r, trace: tr.Trace, result: res})
	}
	return out, nil
}

var serviceOps = []string{"design", "evaluate", "capacity-search", "whatif", "rewire-plan"}

// layerGroups are the replayed layers of exec, by span-name prefix.
var layerGroups = []string{"topology", "routing", "flowsim", "mcf", "whatif", "capsearch", "estimate"}

func layerMetrics(cfg config, ph phase) []metric {
	d := ph.delta
	rp := newReplayer()
	rp.run(ph.w, ph.executed, min(time.Duration(cfg.seconds*float64(time.Second)), replayBudget))
	rp.addJobs(ph.jobTraces)
	if err := rp.tr.dump(filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", ph.w.name, cfg.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
	}
	self := rp.tr.selfTimes()

	L := ph.reqTime.Seconds()
	Q := d.sum("jellyfishd_scheduler_queue_wait_seconds_sum")
	E := 0.0
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name: name, value: v, unit: unit}) }
	add("service.queue_wait_ms", ratio(Q, d.sum("jellyfishd_scheduler_queue_wait_seconds_count"))*1e3, "ms")
	coldByOp := map[string]float64{}
	for _, op := range serviceOps {
		lbl := `op="` + op + `"`
		s, n := d.sum("jellyfishd_op_duration_seconds_sum", lbl), d.sum("jellyfishd_op_duration_seconds_count", lbl)
		E += s
		coldByOp[op] = n
		add("service.exec_ms."+op, ratio(s, n)*1e3, "ms")
	}
	add("service.path_us_per_op", ratio(L-Q-E, float64(ph.ops))*1e6, "us")
	for _, tier := range []string{"resp", "family", "chain", "sim"} {
		lbl := `tier="` + tier + `"`
		h := d.sum("jellyfishd_cache_hits_total", lbl)
		add("service."+tier+"_hit_ratio", ratio(h, h+d.sum("jellyfishd_cache_misses_total", lbl)), "ratio")
	}
	add("service.deduped", d.sum("jellyfishd_sched_deduped_total"), "count")
	add("service.sync_rejected", d.sum("jellyfishd_sync_rejected_total"), "count")

	// Replayed layers, scaled from the replayed ops to the timed phase:
	// per op kind by cold executions, decoding by ops.
	scale := func(kind string) float64 {
		if kind == "" {
			return ratio(float64(ph.ops), float64(rp.decoded))
		}
		return ratio(coldByOp[kind], float64(rp.cold[kind]))
	}
	scaled := map[string]float64{}
	for k, st := range self {
		scaled[k.name] += st.Seconds() * scale(k.kind)
	}
	perCall := func(name string) float64 { return ratio(rp.tr.total(name).Seconds(), float64(rp.tr.count(name))) }
	perCallAllocs := func(name string) float64 { return ratio(float64(rp.allocs[name]), float64(rp.tr.count(name))) }
	add("codec.decode_us", perCall("codec.decode")*1e6, "us")
	add("codec.encode_us", perCall("codec.encode")*1e6, "us")
	add("topology.build_ms", perCall("topology.build")*1e3, "ms")
	add("topology.stats_us", perCall("topology.stats")*1e6, "us")
	add("topology.blueprint_us", perCall("topology.blueprint")*1e6, "us")
	add("routing.compile_ms", perCall("routing.compile")*1e3, "ms")
	add("routing.table_ms", perCall("routing.table")*1e3, "ms")
	add("routing.table_allocs", perCallAllocs("routing.table"), "allocs")
	add("flowsim.simulate_ms", perCall("flowsim.simulate")*1e3, "ms")
	add("flowsim.simulate_allocs", perCallAllocs("flowsim.simulate"), "allocs")
	// The daemon's solver instruments count capacity-search solves only;
	// sync solves are timed in the replay.
	solves := d.sum("jellyfishd_solver_solves_total")
	solveSum, probeSum := d.sum("jellyfishd_solver_solve_seconds_sum"), d.sum("jellyfishd_capsearch_probe_seconds_sum")
	if solves > 0 {
		add("mcf.solve_ms", ratio(solveSum, solves)*1e3, "ms")
	} else {
		add("mcf.solve_ms", perCall("mcf.solve")*1e3, "ms")
	}
	add("mcf.solves", solves, "count")
	add("mcf.phases_per_solve", ratio(d.sum("jellyfishd_solver_phases_total"), solves), "count")
	add("mcf.dual_refreshes_per_solve", ratio(d.sum("jellyfishd_solver_dual_refreshes_total"), solves), "count")
	add("mcf.phase_us", ratio(d.sum("jellyfishd_solver_phase_seconds_sum"), d.sum("jellyfishd_solver_phase_seconds_count"))*1e6, "us")
	add("whatif.step_ms", perCall("whatif.step")*1e3, "ms")
	for _, kind := range []string{"screened", "unscreened"} {
		n := float64(rp.searches[kind])
		add("capsearch.search_ms."+kind, ratio(rp.searchDur[kind].Seconds(), n)*1e3, "ms")
		add("capsearch.probes_per_search."+kind, ratio(float64(rp.probes[kind]), n), "count")
	}
	add("capsearch.trials_per_search", ratio(d.sum("jellyfishd_capsearch_trials_total"), coldByOp["capacity-search"]), "count")
	add("estimate.call_ms", perCall("estimate.call")*1e3, "ms")
	appendSum := d.sum("jellyfishd_jobstore_append_seconds_sum")
	snapSum := d.sum("jellyfishd_jobstore_snapshot_seconds_sum")
	jobs := float64(ph.jobs.jobs)
	add("persist.append_us", ratio(appendSum, d.sum("jellyfishd_jobstore_append_seconds_count"))*1e6, "us")
	add("persist.appends_per_job", ratio(d.sum("jellyfishd_jobstore_appends_total"), jobs), "count")
	add("persist.snapshot_ms", ratio(snapSum, d.sum("jellyfishd_jobstore_snapshot_seconds_count"))*1e3, "ms")
	add("persist.snapshots", d.sum("jellyfishd_jobstore_snapshots_total"), "count")
	add("jobs.submit_ms", ratio(ph.jobs.submit.Seconds(), jobs)*1e3, "ms")
	add("jobs.sse_frames_per_job", ratio(float64(ph.jobs.frames), jobs), "count")
	add("jobs.first_frame_ms", ratio(ph.jobs.firstFrame.Seconds(), jobs)*1e3, "ms")

	// The layer table, as shares of the clients' summed request time L:
	//   L = queue wait + exec + path
	//   path = codec (r) + persist (m) + other
	//   exec = replayed and traced layers (r, t) + unattributed
	// other and unattributed are leftovers, so the shares add up to 1 by
	// construction; share.covered is the measured part alone.
	codec := scaled["codec.decode"] + scaled["codec.encode"]
	attributed := probeSum // the probes hold the solves
	groups := map[string]float64{"mcf": solveSum, "capsearch": probeSum - solveSum}
	for name, v := range scaled {
		g, _, _ := strings.Cut(name, ".")
		if g != "codec" {
			groups[g] += v
			attributed += v
		}
	}
	persist := appendSum + snapSum
	other, unattributed := L-Q-E-codec-persist, E-attributed
	add("share.queue_wait", ratio(Q, L), "ratio")
	add("share.path.codec", ratio(codec, L), "ratio")
	add("share.path.persist", ratio(persist, L), "ratio")
	add("share.path.other", ratio(other, L), "ratio")
	if other < 0 {
		ms[len(ms)-1].note = "NEGATIVE: queue wait, exec, codec and persist exceed summed request time"
	}
	for _, g := range layerGroups {
		add("share.exec."+g, ratio(groups[g], L), "ratio")
	}
	add("unattributed_share", ratio(unattributed, L), "ratio")
	ms[len(ms)-1].note = fmt.Sprintf("%.4f of summed exec time; the replayed layers of sync ops ran without contention, so this includes the timed phase's contention as well as code no span covers", ratio(unattributed, E))
	if unattributed < 0 {
		ms[len(ms)-1].note = "NEGATIVE: the replayed and traced layers exceed summed exec time; " + ms[len(ms)-1].note
	}
	add("share.covered", ratio(Q+codec+persist+attributed, L), "ratio")
	ms[len(ms)-1].note = "queue wait + codec + persist + replayed and traced layers, over summed request time: the measured part, without the leftovers"
	add("trace.replayed_ops", float64(rp.replayed), "count")
	if ph.jobs.jobs > 0 {
		ms[len(ms)-1].note = fmt.Sprintf("plus %d of %d capacity jobs' span trees from GET /v1/trace (the rest evicted)", len(ph.jobTraces), ph.jobs.jobs)
	}
	return ms
}

// A span is one timed call the benchmark made into a layer during the
// replay: name, start, end (ns since the replay began), the enclosing
// span (-1 for a root), and the schedule position and op kind it served.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Pos    int    `json:"pos"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// A tracer keeps spans in memory; dump writes them out at exit.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	off   bool // warm-up replay: run the calls, record nothing
	pos   int
	kind  string
}

func (t *tracer) begin(name string) {
	if t.off {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Kind: t.kind, Pos: t.pos, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t.off {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

type spanKey struct{ name, kind string }

// selfTimes sums each layer's self time (its spans' durations minus
// the parts their child spans cover) by span name and op kind. Root
// spans ("op") group an op's layers and are not a layer themselves.
func (t *tracer) selfTimes() map[spanKey]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[spanKey]time.Duration{}
	for i, s := range t.spans {
		if s.Name == "op" {
			continue
		}
		kind := s.Kind
		if s.Name == "codec.decode" {
			kind = "" // every op decodes, hit or miss
		}
		out[spanKey{s.Name, kind}] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func (t *tracer) dump(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// A replayer re-runs sync ops through the library with the service's
// cache tiers mirrored: a repeated body is a response hit (decode only),
// a transport family keeps its compiled instance, and a what-if chain
// resumes from its deepest cached prefix. Capacity jobs are only
// decoded; their layers come from the daemon (addJobs, /metrics).
type replayer struct {
	tr       *tracer
	done     map[*op]bool
	sims     map[string]*replaySim
	chains   map[string]*mcf.State
	cold     map[string]int
	allocs   map[string]uint64
	decoded  int
	replayed int
	// Capacity searches by kind (screened, unscreened), from job traces.
	searches  map[string]int
	searchDur map[string]time.Duration
	probes    map[string]int
}

type replaySim struct {
	top      *jellyfish.Topology
	compiled *routing.Compiled
	sim      *flowsim.Sim
}

func newReplayer() *replayer {
	return &replayer{
		tr: &tracer{epoch: time.Now()}, done: map[*op]bool{}, sims: map[string]*replaySim{},
		chains: map[string]*mcf.State{}, cold: map[string]int{}, allocs: map[string]uint64{},
		searches: map[string]int{}, searchDur: map[string]time.Duration{}, probes: map[string]int{},
	}
}

// replayMaxOps caps the replay, and with it the span dump, on workloads
// whose timed phase completes hundreds of thousands of cache hits;
// replayBudget caps its time. Layer totals are scaled up from the
// replayed ops to the whole timed phase.
const (
	replayMaxOps = 20000
	replayBudget = 10 * time.Second
)

// run replays the warm-up ops untraced, then the first executed schedule
// positions in order until the budget is spent.
func (rp *replayer) run(w *workload, executed int, budget time.Duration) {
	rp.tr.off = true
	for _, o := range w.warmup {
		rp.exec(o)
	}
	rp.tr.off = false
	start := time.Now()
	for pos := 0; pos < min(executed, replayMaxOps) && time.Since(start) < budget; pos++ {
		o := w.opAt(pos)
		rp.tr.pos, rp.tr.kind = pos, o.kind
		rp.tr.begin("op")
		rp.decode(o)
		if o.kind != "capacity-search" && !rp.done[o] {
			rp.cold[o.kind]++
			rp.exec(o)
		}
		rp.tr.end()
		rp.replayed++
	}
}

// decode strictly decodes the body into a fresh request value, as the
// handler does (capacity-jobs bodies arrive wrapped in a job spec).
func (rp *replayer) decode(o *op) {
	body := o.body
	var spec []byte
	if o.kind == "capacity-search" {
		spec = mustJSON(&service.JobSpec{Type: o.kind, Request: body})
	}
	rp.tr.begin("codec.decode")
	defer rp.tr.end()
	if spec != nil {
		var js service.JobSpec
		strictDecode(spec, &js)
		body = js.Request
	}
	switch o.kind {
	case "design":
		strictDecode(body, &service.DesignSpec{})
	case "evaluate":
		strictDecode(body, &service.EvaluateRequest{})
	case "whatif":
		strictDecode(body, &service.WhatIfRequest{})
	case "rewire-plan":
		strictDecode(body, &service.RewireRequest{})
	case "capacity-search":
		strictDecode(body, &service.CapacitySearchRequest{})
	}
	rp.decoded++
}

func strictDecode(b []byte, v any) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		panic(fmt.Sprintf("replay: decoding a generated body: %v", err))
	}
}

func (rp *replayer) encode(v any) {
	rp.tr.begin("codec.encode")
	mustJSON(v)
	rp.tr.end()
}

func (rp *replayer) build(d *service.DesignSpec) *jellyfish.Topology {
	rp.tr.begin("topology.build")
	defer rp.tr.end()
	return jellyfish.New(designConfig(d))
}

// timedAllocs runs f inside a span and adds its heap allocations to the
// layer's count (the MemStats reads sit outside the span).
func (rp *replayer) timedAllocs(name string, f func()) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	rp.tr.begin(name)
	f()
	rp.tr.end()
	runtime.ReadMemStats(&ms)
	if !rp.tr.off {
		rp.allocs[name] += ms.Mallocs - before
	}
}

func (rp *replayer) exec(o *op) {
	rp.done[o] = true
	switch req := o.req.(type) {
	case *service.DesignSpec:
		top := rp.build(req)
		rp.tr.begin("topology.stats")
		stats := top.SwitchPathStats()
		rp.tr.end()
		rp.tr.begin("topology.blueprint")
		var buf, compact bytes.Buffer
		jellyfish.WriteBlueprint(top, &buf)
		json.Compact(&compact, buf.Bytes())
		rp.tr.end()
		rp.encode(&service.DesignResponse{Switches: top.NumSwitches(), Servers: top.NumServers(), Links: top.NumLinks(),
			MeanPath: stats.Mean, Diameter: stats.Diameter, Blueprint: compact.Bytes()})
	case *service.EvaluateRequest:
		resp := &service.EvaluateResponse{}
		if req.Transport != nil {
			rp.evalTransport(req, resp)
		} else {
			top := rp.build(req.Topology.Design)
			for i := 0; i < req.Trials; i++ {
				seed := req.Seed + uint64(i)
				if req.Estimator != nil {
					rp.tr.begin("estimate.call")
					lo, hi, _ := jellyfish.EstimateThroughput(top, req.Estimator.Kind, req.Estimator.Sample, seed)
					rp.tr.end()
					resp.Throughputs = append(resp.Throughputs, lo)
					resp.Bounds = append(resp.Bounds, [2]float64{lo, hi})
					continue
				}
				rp.tr.begin("mcf.solve")
				resp.Throughputs = append(resp.Throughputs, jellyfish.OptimalThroughput(top, seed, 1))
				rp.tr.end()
			}
		}
		resp.Min, resp.Mean = minMean(resp.Throughputs)
		rp.encode(resp)
	case *service.WhatIfRequest:
		rp.encode(rp.whatif(req))
	case *service.RewireRequest:
		before, after := rp.build(req.Before.Design), rp.build(req.After.Design)
		rp.tr.begin("topology.blueprint")
		plan := jellyfish.PlanRewiring(before, after)
		rp.tr.end()
		resp := &service.RewireResponse{Moves: plan.Moves()}
		for _, e := range plan.Remove {
			resp.Remove = append(resp.Remove, [2]int{e.U, e.V})
		}
		for _, e := range plan.Add {
			resp.Add = append(resp.Add, [2]int{e.U, e.V})
		}
		rp.encode(resp)
	}
}

func minMean(xs []float64) (lo, mean float64) {
	lo = math.Inf(1)
	for _, x := range xs {
		lo = min(lo, x)
		mean += x / float64(len(xs))
	}
	return lo, mean
}

func (rp *replayer) evalTransport(req *service.EvaluateRequest, resp *service.EvaluateResponse) {
	key := string(mustJSON(req.Topology.Design))
	a := rp.sims[key]
	if a == nil {
		a = &replaySim{top: rp.build(req.Topology.Design)}
		rp.tr.begin("routing.compile")
		a.compiled = routing.NewCompiled(a.top.Graph)
		a.sim = flowsim.NewSim(0, a.top.NumServers())
		rp.tr.end()
		rp.sims[key] = a
	}
	for i := 0; i < req.Trials; i++ {
		var (
			pat   *traffic.Pattern
			table *routing.Table
			proto flowsim.Protocol
			src   *rng.Source
			lam   float64
		)
		rp.timedAllocs("routing.table", func() {
			pat, table, proto, src = transportTrial(a.top, a.compiled, req.Transport, req.Seed+uint64(i))
		})
		rp.timedAllocs("flowsim.simulate", func() {
			lam = a.sim.Simulate(pat.Flows, table, proto, flowsim.SimSource(src, proto)).Mean()
		})
		resp.Throughputs = append(resp.Throughputs, lam)
	}
}

// whatif evaluates a chain, resuming from the deepest cached prefix as
// the service's chain tier does.
func (rp *replayer) whatif(req *service.WhatIfRequest) *service.WhatIfResponse {
	keys := make([]string, len(req.Scenarios)+1)
	keys[0] = fmt.Sprintf("%s/%d", mustJSON(req.Base.Design), req.Seed)
	for i := range req.Scenarios {
		keys[i+1] = keys[i] + "/" + string(mustJSON(&req.Scenarios[i]))
	}
	resumed := -1
	for i := len(keys) - 1; i >= 0; i-- {
		if rp.chains[keys[i]] != nil {
			resumed = i
			break
		}
	}
	top := rp.build(req.Base.Design)
	ev := jellyfish.NewWhatIfEvaluator(1)
	resp := &service.WhatIfResponse{}
	step := func(i int) {
		rp.tr.begin("whatif.step")
		if i > 0 {
			applyScenario(top, &req.Scenarios[i-1])
		}
		lam := ev.OptimalThroughput(top, req.Seed)
		rp.tr.end()
		resp.Steps = append(resp.Steps, service.WhatIfStep{Step: i, Switches: top.NumSwitches(), Servers: top.NumServers(), Links: top.NumLinks(), Throughput: lam})
		rp.chains[keys[i]] = ev.State()
	}
	if resumed >= 0 {
		rp.tr.begin("topology.build")
		for i := 1; i <= resumed; i++ {
			applyScenario(top, &req.Scenarios[i-1])
		}
		rp.tr.end()
		ev.SetState(rp.chains[keys[resumed]])
	} else {
		step(0)
		resumed = 0
	}
	for i := resumed + 1; i < len(keys); i++ {
		step(i)
	}
	return resp
}

// addJobs takes the per-search figures from the capacity jobs' span
// trees: a job's root span is its whole execution, whatever the trace
// dropped beneath it. Each job's result is re-encoded under a codec span.
func (rp *replayer) addJobs(jobs []jobTrace) {
	for i, j := range jobs {
		kind := "unscreened"
		if j.ref.o.req.(*service.CapacitySearchRequest).Estimator != nil {
			kind = "screened"
		}
		for _, root := range j.trace.Spans {
			rp.searchDur[kind] += time.Duration(root.DurNs)
		}
		rp.searches[kind]++
		rp.probes[kind] += j.ref.frames
		var resp service.CapacitySearchResponse
		if err := json.Unmarshal(j.result, &resp); err != nil {
			panic(fmt.Sprintf("replay: decoding a job result: %v", err))
		}
		rp.tr.pos, rp.tr.kind = i, "capacity-search"
		rp.encode(&resp)
		rp.cold["capacity-search"]++
	}
}
