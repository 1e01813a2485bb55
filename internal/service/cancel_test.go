package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"
)

// Cancellation property suite: a cancel may land at any poll of an
// execution, and wherever it lands the caller sees either the complete
// answer or context.Canceled — never a value computed from a truncated
// kernel, in the response, the event stream or a cache.

// countdownCtx is a never-done context whose Err reports
// context.Canceled from call n+1 on: a cancellation that lands at one
// exact, reproducible poll of a deterministic execution.
type countdownCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n}
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

var cancelWorkloads = []struct {
	name string
	spec JobSpec
}{
	{"evaluate-exact", JobSpec{Type: "evaluate", Request: json.RawMessage(
		`{"topology":{"design":{"switches":16,"ports":6,"networkDegree":4,"seed":1}},"seed":7,"trials":3}`)}},
	{"evaluate-bisection", JobSpec{Type: "evaluate", Request: json.RawMessage(
		`{"topology":{"design":{"switches":16,"ports":6,"networkDegree":4,"seed":1}},"seed":7,"trials":3,"estimator":{"kind":"bisection"}}`)}},
	{"evaluate-transport", JobSpec{Type: "evaluate", Request: json.RawMessage(
		`{"topology":{"design":{"switches":16,"ports":6,"networkDegree":4,"seed":1}},"seed":7,"trials":3,"transport":{"protocol":"tcp8","routing":"ksp8"}}`)}},
	{"whatif", JobSpec{Type: "whatif", Request: json.RawMessage(
		`{"base":{"design":{"switches":16,"ports":6,"networkDegree":4,"seed":1}},"seed":9,"scenarios":[` +
			`{"failLinks":{"fraction":0.1,"seed":2}},{"failSwitches":{"fraction":0.1,"seed":3}},{"expand":{"switches":2,"ports":6,"networkDegree":4,"seed":4}}]}`)}},
	{"whatif-transport", JobSpec{Type: "whatif", Request: json.RawMessage(
		`{"base":{"design":{"switches":16,"ports":6,"networkDegree":4,"seed":1}},"seed":9,"transport":{"protocol":"mptcp8"},"scenarios":[` +
			`{"failLinks":{"fraction":0.1,"seed":2}},{"failSwitches":{"fraction":0.1,"seed":3}},{"expand":{"switches":2,"ports":6,"networkDegree":4,"seed":4}}]}`)}},
	{"capacity-search", JobSpec{Type: "capacity-search", Request: json.RawMessage(
		`{"switches":12,"ports":4,"trials":2,"seed":53}`)}},
}

type cancelRun struct {
	resp   []byte
	events [][]byte
	err    error
}

// runOnWorker plans spec afresh and executes it through sched.do on
// srv's single shard worker, collecting the delivered event stream.
func runOnWorker(t *testing.T, srv *Server, spec JobSpec, ctx context.Context) cancelRun {
	t.Helper()
	p, aerr := planJob(&spec)
	if aerr != nil {
		t.Fatalf("planning %s: %v", spec.Type, aerr)
	}
	var r cancelRun
	r.resp, _, r.err = srv.sched.do(ctx, p, false, nil, func(b []byte) { r.events = append(r.events, b) })
	return r
}

// cancelPoints picks the countdowns to try: every one of the first few
// polls, then an even spread up to the execution's total poll count.
func cancelPoints(total int64) []int64 {
	seen := map[int64]bool{}
	var ns []int64
	add := func(n int64) {
		if n >= 0 && n <= total && !seen[n] {
			seen[n] = true
			ns = append(ns, n)
		}
	}
	for n := int64(0); n < 4; n++ {
		add(n)
	}
	const spread = 16
	for k := int64(1); k <= spread; k++ {
		add(total * k / spread)
	}
	add(total - 1)
	return ns
}

func TestCancellationAtAnyPollNeverLeaksTruncatedResults(t *testing.T) {
	opt := Options{Workers: 1, SolverWorkers: 1}
	for _, wl := range cancelWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			fresh := mustNew(t, opt)
			ref := runOnWorker(t, fresh, wl.spec, context.Background())
			fresh.Close()
			if ref.err != nil {
				t.Fatalf("uncancelled run: %v", ref.err)
			}
			counter := newCountdown(math.MaxInt64)
			srv := mustNew(t, opt)
			if got := runOnWorker(t, srv, wl.spec, counter); got.err != nil || !bytes.Equal(got.resp, ref.resp) {
				t.Fatalf("never-firing countdown changed the answer: err %v", got.err)
			}
			srv.Close()
			total := counter.calls.Load()
			t.Logf("%d polls, %d events", total, len(ref.events))

			for _, n := range cancelPoints(total) {
				srv := mustNew(t, opt)
				got := runOnWorker(t, srv, wl.spec, newCountdown(n))
				switch {
				case got.err == nil:
					if !bytes.Equal(got.resp, ref.resp) || !slices.EqualFunc(got.events, ref.events, bytes.Equal) {
						t.Errorf("cancel at poll %d/%d: succeeded with a different answer:\n got %s\n want %s", n, total, got.resp, ref.resp)
					}
				case !errors.Is(got.err, context.Canceled):
					t.Errorf("cancel at poll %d/%d: err %v, want context.Canceled", n, total, got.err)
				}
				for i, e := range got.events {
					if i >= len(ref.events) || !bytes.Equal(e, ref.events[i]) {
						t.Errorf("cancel at poll %d/%d: event %d is %s, not the uncancelled stream's", n, total, i, e)
						break
					}
				}
				// Nothing the cancelled run left on the worker may change
				// the next answer.
				after := runOnWorker(t, srv, wl.spec, context.Background())
				if after.err != nil || !bytes.Equal(after.resp, ref.resp) || !slices.EqualFunc(after.events, ref.events, bytes.Equal) {
					t.Errorf("cancel at poll %d/%d: the next uncancelled run differs from a fresh server's (err %v)", n, total, after.err)
				}
				srv.Close()
			}
		})
	}
}
