package service

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// This file is the service's determinism proof, exercised end to end:
// the same request body yields byte-identical response bytes
//
//   1. across worker counts (shard placement must not matter),
//   2. across cold and warm-cache executions (a chain-prefix or family
//      hit must reproduce exactly what a cold run computes), and
//   3. across repeated submissions (response-cache hits return the
//      original bytes).
//
// The argument for why this holds is in DESIGN.md §10: every cache entry
// is a pure function of its canonical content-digest key. These tests are
// the regression net under that argument. Run with -race in CI.

// planningSequence is a mixed workload covering every planning endpoint,
// with deliberate warm-state overlap: repeated designs, a what-if chain
// sharing a prefix with a longer one, capacity searches sharing a family.
var planningSequence = []struct{ path, body string }{
	{"/v1/design", `{"switches":20,"ports":8,"networkDegree":5,"seed":1}`},
	{"/v1/evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":2}`},
	{"/v1/whatif", `{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}}]}`},
	{"/v1/whatif", `{"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":9,"scenarios":[{"failLinks":{"fraction":0.1,"seed":2}},{"expand":{"switches":2,"ports":8,"networkDegree":5,"seed":3}}]}`},
	{"/v1/capacity-search", `{"switches":10,"ports":4,"trials":1,"seed":5}`},
	{"/v1/capacity-search", `{"switches":10,"ports":4,"trials":2,"seed":5}`},
	{"/v1/design", `{"switches":20,"ports":8,"networkDegree":5,"seed":1}`},
	{"/v1/evaluate", `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":1}},"seed":7,"trials":2}`},
}

// replay runs the full planning sequence against a fresh service with the
// given worker count and returns the response bodies.
func replay(t *testing.T, workers int) [][]byte {
	t.Helper()
	srv := mustNew(t, Options{Workers: workers})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	out := make([][]byte, len(planningSequence))
	for i, req := range planningSequence {
		out[i] = mustPost(t, ts.URL+req.path, req.body)
	}
	return out
}

func TestResponsesInvariantAcrossWorkerCounts(t *testing.T) {
	base := replay(t, 1)
	for _, workers := range []int{2, 4} {
		got := replay(t, workers)
		for i := range base {
			if !bytes.Equal(got[i], base[i]) {
				t.Fatalf("workers=%d request %d (%s):\n%s\nvs workers=1:\n%s",
					workers, i, planningSequence[i].path, got[i], base[i])
			}
		}
	}
}

// Re-sending every request against the same server returns the original
// bytes from the response cache.
func TestRepeatedRequestsHitResponseCache(t *testing.T) {
	srv := mustNew(t, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	first := make([][]byte, len(planningSequence))
	for i, req := range planningSequence {
		first[i] = mustPost(t, ts.URL+req.path, req.body)
	}
	hitsBefore := counterSum(t, srv, "jellyfishd_cache_hits_total", `tier="resp"`)
	for i, req := range planningSequence {
		if got := mustPost(t, ts.URL+req.path, req.body); !bytes.Equal(got, first[i]) {
			t.Fatalf("request %d: second submission changed bytes", i)
		}
	}
	if hits := counterSum(t, srv, "jellyfishd_cache_hits_total", `tier="resp"`) - hitsBefore; hits != int64(len(planningSequence)) {
		t.Fatalf("second pass took %d response-cache hits, want %d", hits, len(planningSequence))
	}
}

// A what-if request that extends an already-evaluated chain resumes from
// the cached prefix checkpoint — and must produce exactly the bytes a
// cold evaluation of the full chain produces.
func TestWhatIfWarmPrefixMatchesCold(t *testing.T) {
	prefix := `{"base":{"design":{"switches":24,"ports":8,"networkDegree":5,"seed":43}},"seed":47,"scenarios":[{"failLinks":{"fraction":0.08,"seed":2}}]}`
	full := `{"base":{"design":{"switches":24,"ports":8,"networkDegree":5,"seed":43}},"seed":47,"scenarios":[{"failLinks":{"fraction":0.08,"seed":2}},{"failSwitches":{"fraction":0.05,"seed":3}}]}`

	warmSrv := mustNew(t, Options{Workers: 2})
	defer warmSrv.Close()
	warmTS := httptest.NewServer(warmSrv.Handler())
	defer warmTS.Close()
	mustPost(t, warmTS.URL+"/v1/whatif", prefix)
	warm := mustPost(t, warmTS.URL+"/v1/whatif", full)
	if hits := counterSum(t, warmSrv, "jellyfishd_cache_hits_total", `tier="chain"`); hits < 1 {
		t.Fatalf("chain hits = %d; the second request did not resume from the prefix checkpoint", hits)
	}

	coldSrv := mustNew(t, Options{Workers: 2})
	defer coldSrv.Close()
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer coldTS.Close()
	cold := mustPost(t, coldTS.URL+"/v1/whatif", full)

	if !bytes.Equal(warm, cold) {
		t.Fatalf("warm-resumed chain differs from cold chain:\nwarm: %s\ncold: %s", warm, cold)
	}
}

// A capacity search over an inventory another search already probed
// reuses the cached topology family — and must return exactly the bytes
// a cold search returns.
func TestCapacitySearchFamilyReuseMatchesCold(t *testing.T) {
	first := `{"switches":12,"ports":4,"trials":1,"seed":53}`
	second := `{"switches":12,"ports":4,"trials":2,"seed":53}`

	warmSrv := mustNew(t, Options{Workers: 2})
	defer warmSrv.Close()
	warmTS := httptest.NewServer(warmSrv.Handler())
	defer warmTS.Close()
	mustPost(t, warmTS.URL+"/v1/capacity-search", first)
	warm := mustPost(t, warmTS.URL+"/v1/capacity-search", second)
	if hits := counterSum(t, warmSrv, "jellyfishd_cache_hits_total", `tier="family"`); hits < 1 {
		t.Fatalf("family hits = %d; the second search did not reuse the cached family", hits)
	}

	coldSrv := mustNew(t, Options{Workers: 2})
	defer coldSrv.Close()
	coldTS := httptest.NewServer(coldSrv.Handler())
	defer coldTS.Close()
	cold := mustPost(t, coldTS.URL+"/v1/capacity-search", second)

	if !bytes.Equal(warm, cold) {
		t.Fatalf("family-warm search differs from cold search:\nwarm: %s\ncold: %s", warm, cold)
	}
}
