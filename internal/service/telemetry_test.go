package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"jellyfish/internal/telemetry"
)

// The telemetry suite pins the one-way-flow contract from the outside:
// enabling the full observability surface (metrics, flight recorders,
// trace extraction) must not change a single response or stream byte,
// for any worker count. Then it exercises the surface itself: /metrics
// families and exposition format, /v1/trace span trees, and the
// disabled-mode answers.

// syncWorkloads exercises every sync endpoint with a small instance.
var syncWorkloads = []struct {
	name, path, body string
}{
	{"design", "/v1/design", `{"switches":12,"ports":6,"networkDegree":4,"seed":3}`},
	{"evaluate", "/v1/evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":2}`},
	{"capacity-search", "/v1/capacity-search", `{"switches":16,"ports":6,"trials":2,"seed":11}`},
	{"whatif", "/v1/whatif", `{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}}]}`},
	{"rewire-plan", "/v1/rewire-plan", `{"before":{"design":{"switches":10,"ports":5,"networkDegree":3,"seed":1}},"after":{"design":{"switches":10,"ports":5,"networkDegree":3,"seed":2}}}`},
}

// TestResponsesByteIdenticalTelemetryOnOff is the tentpole guarantee:
// telemetry on vs off, across -workers 1 vs 4, yields byte-identical
// responses on every sync endpoint and byte-identical SSE streams on
// every job workload. If an instrument ever fed a value back into a
// computation, this is the test that would catch it.
func TestResponsesByteIdenticalTelemetryOnOff(t *testing.T) {
	type variant struct {
		name string
		opt  Options
	}
	variants := []variant{
		{"w1-telemetry", Options{Workers: 1}},
		{"w1-disabled", Options{Workers: 1, DisableTelemetry: true}},
		{"w4-telemetry", Options{Workers: 4}},
		{"w4-disabled", Options{Workers: 4, DisableTelemetry: true}},
	}
	servers := make([]string, len(variants))
	for i, v := range variants {
		ts, _ := newTestServer(t, v.opt)
		servers[i] = ts.URL
	}

	for _, wl := range syncWorkloads {
		ref := string(mustPost(t, servers[0]+wl.path, wl.body))
		for i := 1; i < len(variants); i++ {
			got := string(mustPost(t, servers[i]+wl.path, wl.body))
			if got != ref {
				t.Errorf("%s: response differs between %s and %s:\n a %q\n b %q",
					wl.name, variants[0].name, variants[i].name, ref, got)
			}
		}
	}
	for _, wl := range streamWorkloads {
		ref := runJobAndStream(t, servers[0], wl.body)
		for i := 1; i < len(variants); i++ {
			got := runJobAndStream(t, servers[i], wl.body)
			if got != ref {
				t.Errorf("%s: stream differs between %s and %s:\n a %q\n b %q",
					wl.name, variants[0].name, variants[i].name, ref, got)
			}
		}
	}
}

// metricValue extracts the value of the first sample line whose series
// name+labels starts with prefix. Returns ok=false if no line matches.
func metricValue(body, prefix string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}

// counterSum reads a counter family from srv's registry, summing every
// series whose labels contain the given fragment — so `tier="resp"` sums
// a cache tier over the shard workers, and "" sums the whole family.
func counterSum(t *testing.T, srv *Server, family, labels string) int64 {
	t.Helper()
	var b strings.Builder
	srv.tele.reg.WritePrometheus(&b)
	var sum int64
	for _, line := range strings.Split(b.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, lbl, _ := strings.Cut(series, "{")
		if name != family || !strings.Contains(lbl, labels) {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("%s: unparsable counter sample %q", family, line)
		}
		sum += n
	}
	return sum
}

func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	// Drive every subsystem: a capacity search (solver + capsearch
	// instruments), the same search again (response-cache hit), and an
	// evaluate (op series).
	mustPost(t, ts.URL+"/v1/capacity-search", `{"switches":16,"ports":6,"trials":2,"seed":11}`)
	mustPost(t, ts.URL+"/v1/capacity-search", `{"switches":16,"ports":6,"trials":2,"seed":11}`)
	mustPost(t, ts.URL+"/v1/evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":1}`)

	status, raw := doGet(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", status, raw)
	}
	body := string(raw)

	families := []string{
		"jellyfishd_op_duration_seconds",
		"jellyfishd_scheduler_queue_wait_seconds",
		"jellyfishd_scheduler_queue_depth",
		"jellyfishd_cache_hits_total",
		"jellyfishd_cache_misses_total",
		"jellyfishd_cache_entries",
		"jellyfishd_sched_deduped_total",
		"jellyfishd_sync_rejected_total",
		"jellyfishd_sse_subscribers",
		"jellyfishd_jobstore_appends_total",
		"jellyfishd_jobstore_replay_seconds",
		"jellyfishd_solver_solves_total",
		"jellyfishd_solver_phases_total",
		"jellyfishd_solver_batches_total",
		"jellyfishd_solver_phase_seconds",
		"jellyfishd_capsearch_probes_total",
		"jellyfishd_capsearch_trials_total",
		"jellyfishd_capsearch_probe_seconds",
	}
	for _, f := range families {
		if !strings.Contains(body, "# HELP "+f+" ") || !strings.Contains(body, "# TYPE "+f+" ") {
			t.Errorf("/metrics missing HELP/TYPE for family %s", f)
		}
	}

	// Exposition format sanity: every non-comment, non-blank line is
	// exactly `name{labels} value` with a parsable value.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("/metrics sample line not `series value`: %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("/metrics sample value unparsable: %q", line)
		}
	}

	// The two searches hit both subsystems: the cold one drove the
	// solver, the repeat was a resp-tier hit somewhere.
	if v, ok := metricValue(body, "jellyfishd_solver_phases_total"); !ok || v <= 0 {
		t.Errorf("solver_phases_total = %v after a capacity search, want > 0", v)
	}
	if v, ok := metricValue(body, "jellyfishd_capsearch_probes_total"); !ok || v <= 0 {
		t.Errorf("capsearch_probes_total = %v after a capacity search, want > 0", v)
	}
	hits := 0.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `jellyfishd_cache_hits_total{tier="resp"`) {
			if v, err := strconv.ParseFloat(strings.Fields(line)[1], 64); err == nil {
				hits += v
			}
		}
	}
	if hits <= 0 {
		t.Errorf("resp-tier cache hits = %v after an identical repeat, want > 0", hits)
	}
}

func TestMetricsDisabled(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1, DisableTelemetry: true})
	status, body := doGet(t, ts.URL+"/metrics")
	if status != http.StatusNotFound || !strings.Contains(string(body), "telemetry_disabled") {
		t.Fatalf("/metrics with telemetry disabled: status %d body %s, want 404 telemetry_disabled", status, body)
	}
}

// runJobWait submits a job and waits for success, returning its id.
func runJobWait(t *testing.T, base, jobBody string) string {
	t.Helper()
	status, body := doPost(t, base+"/v1/jobs", jobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, base, v.ID); got.Status != jobSucceeded {
		t.Fatalf("job: %s (error %+v)", got.Status, got.Error)
	}
	return v.ID
}

// findSpans collects every span with the given name anywhere in the
// trees.
func findSpans(spans []*telemetry.Span, name string) []*telemetry.Span {
	var out []*telemetry.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
		out = append(out, findSpans(s.Children, name)...)
	}
	return out
}

// TestTraceEndpoint runs a capacity search as a job and checks the
// recorded span tree: one root span named by the operation, feasibility
// probes nested under it, trials under probes, and solver solves with
// their Garg–Könemann phases under trials — the flight-recorder view
// of DESIGN.md §15.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	id := runJobWait(t, ts.URL, streamWorkloads[0].body) // capacity-search switches=16 ports=6

	status, body := doGet(t, ts.URL+"/v1/trace/"+id)
	if status != http.StatusOK {
		t.Fatalf("/v1/trace/%s: status %d: %s", id, status, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if tr.JobID != id || tr.Trace == nil {
		t.Fatalf("trace envelope: %+v", tr)
	}
	if len(tr.Trace.Spans) != 1 || tr.Trace.Spans[0].Name != "capacity-search" {
		t.Fatalf("want one root span %q, got %d roots (first %+v)", "capacity-search", len(tr.Trace.Spans), tr.Trace.Spans)
	}
	root := tr.Trace.Spans[0]
	probes := findSpans(root.Children, "capsearch.probe")
	if len(probes) == 0 {
		t.Fatal("no capsearch.probe spans under the root")
	}
	trials := findSpans(probes[0].Children, "capsearch.trial")
	if len(trials) == 0 {
		t.Fatalf("no capsearch.trial spans under the first probe: %+v", probes[0])
	}
	solves := findSpans(trials[0].Children, "mcf.solve")
	if len(solves) == 0 {
		t.Fatalf("no mcf.solve spans under the first trial: %+v", trials[0])
	}
	if phases := findSpans(solves[0].Children, "gk.phase"); len(phases) == 0 {
		t.Fatalf("no gk.phase spans under the first solve: %+v", solves[0])
	}
	for _, s := range append([]*telemetry.Span{root}, probes...) {
		if s.DurNs < 0 || s.StartNs < 0 {
			t.Errorf("span %s has negative timing: %+v", s.Name, s)
		}
	}

	// A second identical job is a response-cache hit; it must carry the
	// original execution's trace rather than none at all.
	id2 := runJobWait(t, ts.URL, streamWorkloads[0].body)
	status, body2 := doGet(t, ts.URL+"/v1/trace/"+id2)
	if status != http.StatusOK {
		t.Fatalf("/v1/trace/%s (cache hit): status %d: %s", id2, status, body2)
	}
	var tr2 TraceResponse
	if err := json.Unmarshal(body2, &tr2); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(tr.Trace)
	b, _ := json.Marshal(tr2.Trace)
	if string(a) != string(b) {
		t.Errorf("cache-hit job's trace differs from the original execution's")
	}
}

func TestTraceUnknownAndDisabled(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	if status, body := doGet(t, ts.URL+"/v1/trace/j999999"); status != http.StatusNotFound || !strings.Contains(string(body), "unknown_job") {
		t.Errorf("unknown job trace: status %d body %s, want 404 unknown_job", status, body)
	}

	off, _ := newTestServer(t, Options{Workers: 1, DisableTelemetry: true})
	id := runJobWait(t, off.URL, `{"type":"design","request":{"switches":8,"ports":4,"networkDegree":2,"seed":1}}`)
	status, body := doGet(t, off.URL+"/v1/trace/"+id)
	if status != http.StatusNotFound || !strings.Contains(string(body), "trace_not_recorded") {
		t.Errorf("disabled-telemetry trace: status %d body %s, want 404 trace_not_recorded", status, body)
	}
}

// TestJobStoreMetrics pins the persistence instruments: with a durable
// store, submissions append journal records and the counters move.
func TestJobStoreMetrics(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, Options{Workers: 1, StateDir: dir})
	runJobWait(t, ts.URL, `{"type":"design","request":{"switches":8,"ports":4,"networkDegree":2,"seed":1}}`)

	_, raw := doGet(t, ts.URL+"/metrics")
	body := string(raw)
	if v, ok := metricValue(body, "jellyfishd_jobstore_appends_total"); !ok || v < 2 {
		t.Errorf("jobstore_appends_total = %v after a submit+done, want >= 2", v)
	}
	if v, ok := metricValue(body, "jellyfishd_jobstore_append_seconds_count"); !ok || v < 2 {
		t.Errorf("jobstore_append_seconds_count = %v, want >= 2", v)
	}
}

// TestMetricsScrapeDuringLoad pins the writer/scraper concurrency
// contract: scraping while jobs execute must not race (the -race CI
// run gives this test its teeth) or produce malformed lines.
func TestMetricsScrapeDuringLoad(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustPost(t, ts.URL+"/v1/capacity-search", `{"switches":16,"ports":6,"trials":2,"seed":13}`)
	}()
	for i := 0; i < 20; i++ {
		if status, _ := doGet(t, ts.URL+"/metrics"); status != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, status)
		}
	}
	<-done
}
