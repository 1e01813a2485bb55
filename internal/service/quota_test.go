package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Per-client quota suite: token-bucket arithmetic under an injected
// clock, deterministic Retry-After jitter, bounded table size, and the
// HTTP contract (429 on work-creating endpoints only).

// fakeClock swaps the table's clock for a hand-advanced one.
func fakeClock(q *quotaTable) *time.Time {
	now := time.Unix(1_700_000_000, 0)
	q.now = func() time.Time { return now }
	return &now
}

func TestQuotaBucketSpendAndRefill(t *testing.T) {
	q := newQuotaTable(1, 2, nil)
	now := fakeClock(q)
	key := "10.0.0.1"

	for i := 0; i < 2; i++ {
		if ok, _ := q.allow(key); !ok {
			t.Fatalf("request %d within burst denied", i+1)
		}
	}
	ok, retry := q.allow(key)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	// Empty bucket at 1 qps: one second to a token, +1 ceiling slack,
	// plus the deterministic per-client jitter.
	if want := 1 + 1 + quotaJitter(key); retry != want {
		t.Fatalf("retryAfter = %d, want %d", retry, want)
	}

	// 1.5s refills 1.5 tokens: exactly one more request fits.
	*now = now.Add(1500 * time.Millisecond)
	if ok, _ := q.allow(key); !ok {
		t.Fatal("request after refill denied")
	}
	if ok, _ := q.allow(key); ok {
		t.Fatal("second request after partial refill allowed")
	}

	// A long idle period caps at burst, never beyond.
	*now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := q.allow(key); !ok {
			t.Fatalf("request %d after long idle denied", i+1)
		}
	}
	if ok, _ := q.allow(key); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestQuotaJitterIsDeterministicPerClient(t *testing.T) {
	for _, key := range []string{"10.0.0.1", "10.0.0.2", "host"} {
		j := quotaJitter(key)
		if j < 0 || j > 2 {
			t.Fatalf("jitter(%q) = %d, want [0,3)", key, j)
		}
		if quotaJitter(key) != j {
			t.Fatalf("jitter(%q) not stable", key)
		}
	}
}

func TestQuotaTableBoundedWithDeterministicEviction(t *testing.T) {
	q := newQuotaTable(1, 1, nil)
	fakeClock(q)
	for i := 0; i < maxQuotaClients; i++ {
		q.allow(fmt.Sprintf("10.0.%d.%d", i/256, i%256))
	}
	if n := len(q.buckets); n != maxQuotaClients {
		t.Fatalf("table size %d, want %d", n, maxQuotaClients)
	}
	// Every bucket is equally drained; the tie-break evicts the smallest
	// key, deterministically.
	if ok, _ := q.allow("newcomer"); !ok {
		t.Fatal("newcomer denied at table cap")
	}
	if n := len(q.buckets); n != maxQuotaClients {
		t.Fatalf("table size %d after eviction, want %d", n, maxQuotaClients)
	}
	if _, still := q.buckets["10.0.0.0"]; still {
		t.Fatal("deterministic eviction victim (smallest key) survived")
	}
	if _, in := q.buckets["newcomer"]; !in {
		t.Fatal("newcomer not admitted")
	}
}

// The HTTP contract: work-creating endpoints (sync planning, job
// submission) shed over-quota clients with 429 + Retry-After; reads are
// never metered.
func TestQuotaHTTPSheddingAndUnmeteredReads(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 1, ClientQPS: 0.001, ClientBurst: 1})

	designBody := `{"switches":20,"ports":8,"networkDegree":5,"seed":1}`
	mustPost(t, ts.URL+"/v1/design", designBody)

	status, body := doPost(t, ts.URL+"/v1/design", designBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota sync: status %d: %s", status, body)
	}
	resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(designBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Job submission is metered too...
	status, body = doPost(t, ts.URL+"/v1/jobs", `{"type":"design","request":`+designBody+`}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("over-quota error body %s: %v", body, err)
	}
	if eb.Error == nil || eb.Error.Code != "quota_exceeded" {
		t.Fatalf("over-quota error body: %s", body)
	}

	// ...reads never are: an exhausted client can still poll and fetch.
	if status, _ := doGet(t, ts.URL+"/v1/jobs"); status != http.StatusOK {
		t.Fatalf("job list while over quota: status %d", status)
	}
	if status, _ := doGet(t, ts.URL+"/metrics"); status != http.StatusOK {
		t.Fatalf("metrics while over quota: status %d", status)
	}
	if got := srv.tele.quotaRejects.Value(); got < 3 {
		t.Fatalf("quota rejections = %d, want >= 3", got)
	}
}

// Quotas off (the default) means no table at all: heavy request streams
// from one client are never shed.
func TestQuotaDisabledByDefault(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 1})
	if srv.quota != nil {
		t.Fatal("quota table exists without ClientQPS")
	}
	designBody := `{"switches":20,"ports":8,"networkDegree":5,"seed":1}`
	for i := 0; i < 5; i++ {
		mustPost(t, ts.URL+"/v1/design", designBody)
	}
}
