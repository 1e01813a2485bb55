package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Crash-recovery suite for the durable job store: jobs survive restarts,
// interrupted jobs re-run to byte-identical results, client
// cancellations stay cancelled, tombstones persist, and corruption is a
// refusal to start, never a silent guess.

// durableServer builds a state-backed server plus HTTP front. Unlike
// newTestServer it does NOT register cleanup — recovery tests tear down
// and restart by hand.
func durableServer(t *testing.T, dir string, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	opt.StateDir = dir
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(srv.Handler()), srv
}

const recoveryJobBody = `{"type":"capacity-search","request":{"switches":16,"ports":6,"trials":1,"seed":11}}`
const recoverySyncPath = "/v1/capacity-search"
const recoverySyncBody = `{"switches":16,"ports":6,"trials":1,"seed":11}`

func TestFinishedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, ts.URL, v.ID); got.Status != jobSucceeded {
		t.Fatalf("job: %s", got.Status)
	}
	_, result1 := doGet(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
	_, events1 := doGet(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
	ts.Close()
	srv.Close()

	ts2, srv2 := durableServer(t, dir, Options{Workers: 2})
	defer func() { ts2.Close(); srv2.Close() }()
	status, body = doGet(t, ts2.URL+"/v1/jobs/"+v.ID)
	if status != http.StatusOK {
		t.Fatalf("job after restart: status %d: %s", status, body)
	}
	var v2 JobView
	if err := json.Unmarshal(body, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Status != jobSucceeded || v2.Created != v.Created {
		t.Fatalf("job after restart: status %s created %s, want succeeded/%s", v2.Status, v2.Created, v.Created)
	}
	_, result2 := doGet(t, ts2.URL+"/v1/jobs/"+v.ID+"/result")
	if string(result1) != string(result2) {
		t.Fatalf("result changed across restart:\n before %s\n after  %s", result1, result2)
	}
	// The recovered result still matches the sync endpoint bit-for-bit.
	if sync := mustPost(t, ts2.URL+recoverySyncPath, recoverySyncBody); string(sync) != string(result2) {
		t.Fatalf("recovered job result != sync response:\n job  %s\n sync %s", result2, sync)
	}
	// And so does the replayed event stream.
	if _, events2 := doGet(t, ts2.URL+"/v1/jobs/"+v.ID+"/events"); string(events1) != string(events2) {
		t.Fatalf("event stream changed across restart:\n before %q\n after  %q", events1, events2)
	}
}

// crash simulates kill -9: detach the store FIRST, so none of the
// orderly shutdown paths (final snapshot, terminal records) can run,
// then unpark the worker and tear the server down. Whatever bytes
// Append already handed the kernel are exactly what the next boot sees.
func crash(ts *httptest.Server, srv *Server, release chan struct{}) {
	srv.jobs.pmu.Lock()
	store := srv.jobs.store
	srv.jobs.store = nil
	srv.jobs.pmu.Unlock()
	close(release)
	ts.Close()
	srv.Close()
	if store != nil {
		store.Close()
	}
}

func TestInterruptedJobRerunsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	// Park the single shard worker so the submitted job is still queued
	// when the daemon "dies": its submit record is durable, its work is
	// not — the canonical mid-flight crash.
	release := make(chan struct{})
	blocked := &plan{family: "x", key: "block", run: func(ctx context.Context, w *worker) (any, error) {
		<-release
		return "done", nil
	}}
	go srv.sched.do(context.Background(), blocked, false, nil, nil)

	status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	crash(ts, srv, release)

	// Boot a fresh daemon on the same state dir: the job re-runs
	// automatically and converges to the same bytes the sync endpoint
	// produces.
	ts2, srv2 := durableServer(t, dir, Options{Workers: 2})
	defer func() { ts2.Close(); srv2.Close() }()
	if got := waitJob(t, ts2.URL, v.ID); got.Status != jobSucceeded {
		t.Fatalf("recovered job: %s (error %+v)", got.Status, got.Error)
	}
	_, result := doGet(t, ts2.URL+"/v1/jobs/"+v.ID+"/result")
	if sync := mustPost(t, ts2.URL+recoverySyncPath, recoverySyncBody); string(sync) != string(result) {
		t.Fatalf("re-run job result != sync response:\n job  %s\n sync %s", result, sync)
	}
}

func TestClientCancelSticksAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	release := make(chan struct{})
	blocked := &plan{family: "x", key: "block", run: func(ctx context.Context, w *worker) (any, error) {
		<-release
		return "done", nil
	}}
	go srv.sched.do(context.Background(), blocked, false, nil, nil)

	status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	doPost(t, ts.URL+"/v1/jobs/"+v.ID+"/cancel", "")
	close(release)
	if got := waitJob(t, ts.URL, v.ID); got.Status != jobCancelled {
		t.Fatalf("job: %s, want cancelled", got.Status)
	}
	ts.Close()
	srv.Close()

	// A client cancellation is a journaled terminal state: the restarted
	// daemon must NOT re-run the job (unlike a shutdown interruption).
	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	status, body = doGet(t, ts2.URL+"/v1/jobs/"+v.ID)
	if status != http.StatusOK {
		t.Fatalf("job after restart: status %d: %s", status, body)
	}
	var v2 JobView
	if err := json.Unmarshal(body, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Status != jobCancelled {
		t.Fatalf("job after restart: %s, want cancelled", v2.Status)
	}
}

// A job must not be shown as finished before its done record is
// journaled, or a crash between the two would take the status back. The
// test holds the store's persist lock, so the done append cannot land,
// and lets the job finish executing behind a parked shard worker; a
// second task queued behind the job proves its execution has returned.
func TestJobStatusTerminalOnlyAfterDoneRecordJournaled(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts.Close(); srv.Close() }()

	release := make(chan struct{})
	parked := &plan{family: "x", key: "park", run: func(ctx context.Context, w *worker) (any, error) {
		<-release
		return "done", nil
	}}
	go srv.sched.do(context.Background(), parked, false, nil, nil)
	v := submitJob(t, ts.URL, `{"type":"design","request":{"switches":8,"ports":4,"networkDegree":2,"seed":1}}`)

	srv.jobs.pmu.Lock()
	close(release)
	behind := &plan{family: "x", key: "behind", run: func(ctx context.Context, w *worker) (any, error) {
		return "done", nil
	}}
	_, _, err := srv.sched.do(context.Background(), behind, false, nil, nil)
	var seen []string
	for i := 0; i < 20 && err == nil; i++ {
		var got JobView
		_, body := doGet(t, ts.URL+"/v1/jobs/"+v.ID)
		if err = json.Unmarshal(body, &got); err == nil {
			seen = append(seen, got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.jobs.pmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seen {
		if terminalStatus(s) {
			t.Fatalf("job reported %s while its done record was still unwritten (statuses seen: %v)", s, seen)
		}
	}
	if got := waitJob(t, ts.URL, v.ID); got.Status != jobSucceeded {
		t.Fatalf("job after the append was released: %s", got.Status)
	}
}

func TestEvictionTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})
	srv.jobs.cap = 1

	status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", status, body)
	}
	var first JobView
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, ts.URL, first.ID); got.Status != jobSucceeded {
		t.Fatalf("first job: %s", got.Status)
	}
	// Second submit evicts the finished first job and journals the
	// eviction.
	status, body = doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", status, body)
	}
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	waitJob(t, ts.URL, second.ID)
	ts.Close()
	srv.Close()

	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	status, body = doGet(t, ts2.URL+"/v1/jobs/"+first.ID)
	if status != http.StatusGone || !strings.Contains(string(body), "job_evicted") {
		t.Fatalf("evicted job after restart: status %d body %s, want 410 job_evicted", status, body)
	}
	if got := waitJob(t, ts2.URL, second.ID); got.Status != jobSucceeded {
		t.Fatalf("second job after restart: %s", got.Status)
	}
}

func TestCorruptStoreRefusesToStart(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})
	status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	waitJob(t, ts.URL, v.ID)
	// Tear down crash-style (no final snapshot) so the journal keeps its
	// submit/done records for corrupting.
	crash(ts, srv, make(chan struct{}))

	// Flip one payload byte mid-journal: the checksum catches it and New
	// fails loudly instead of replaying a corrupted record.
	path := filepath.Join(dir, "journal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("journal unexpectedly small: %d bytes", len(data))
	}
	data[12] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 1, StateDir: dir}); err == nil {
		t.Fatal("New succeeded on a corrupt journal; want a loud failure")
	}
}

func TestSnapshotCompactsJournalAndCollectsBlobs(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery=1: every record triggers a snapshot, so the journal
	// stays empty and blob GC runs constantly — maximal stress on the
	// snapshot path.
	ts, srv := durableServer(t, dir, Options{Workers: 1, SnapshotEvery: 1})
	srv.jobs.cap = 1

	var last JobView
	for i := 0; i < 3; i++ {
		status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, status, body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		waitJob(t, ts.URL, last.ID)
	}
	ts.Close()
	srv.Close()

	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot.json missing or empty after compaction: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "journal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated by final snapshot: err=%v size=%d", err, fi.Size())
	}
	// Three identical jobs share one result blob and one events blob;
	// GC must have removed nothing live and kept nothing dead.
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("blob count after gc: %d (%v), want 2 (one result, one event stream)", len(entries), names)
	}

	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	if status, _ := doGet(t, ts2.URL+"/v1/jobs/"+last.ID+"/result"); status != http.StatusOK {
		t.Fatalf("last job result after compacted restart: status %d", status)
	}
}

func TestDrainRejectsNewWorkAndFinishesJobs(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1})

	status, body := doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() { //jellyvet:allow determinism -- test harness goroutine
		srv.Drain(context.Background())
		close(drained)
	}()

	// Draining refuses new jobs with 503 shutting_down.
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body = doPost(t, ts.URL+"/v1/jobs", recoveryJobBody)
		if status == http.StatusServiceUnavailable {
			if !strings.Contains(string(body), "shutting_down") {
				t.Fatalf("drain submit: body %s, want shutting_down", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never started rejecting submissions (last status %d)", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	<-drained
	ts.Close()

	// The in-flight job was allowed to finish and journal before the
	// store closed: the restarted daemon serves it without re-running.
	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	status, body = doGet(t, ts2.URL+"/v1/jobs/"+v.ID)
	if status != http.StatusOK {
		t.Fatalf("job after drain+restart: status %d: %s", status, body)
	}
	var v2 JobView
	if err := json.Unmarshal(body, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Status != jobSucceeded {
		t.Fatalf("job after drain+restart: %s, want succeeded (drain must let it finish)", v2.Status)
	}
}
