package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jellyfish/internal/service"
)

// daemonOptions is the daemon configuration under test: two shard
// workers (one per core of the 2-vCPU reference machine), serial solves,
// and production defaults for everything else (telemetry on, 128 cache
// entries per worker, 8×workers sync admission, snapshot every 256
// journal records). Every daemon gets a fresh stateDir, so journal
// growth never carries over from one daemon or run to the next.
func daemonOptions(stateDir string) service.Options {
	return service.Options{Workers: 2, SolverWorkers: 1, StateDir: stateDir}
}

const daemonOptionsDesc = "workers=2 solverWorkers=1 cacheEntries=default(128) maxSyncInflight=default(16) snapshotEvery=default(256) telemetry=on quotas=off stateDir=fresh temp dir per daemon"

// A daemon is one jellyfishd instance behind a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	dir    string
}

func startDaemon(workDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "state-")
	if err != nil {
		return nil, fmt.Errorf("creating state dir: %w", err)
	}
	srv, err := service.New(daemonOptions(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), base: "http://" + ln.Addr().String(), dir: dir}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listener down once every connection is idle, waits for
// the serve goroutine, closes the daemon and removes its state dir.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// A client is one closed-loop caller with its own single keep-alive
// connection.
type client struct {
	hc   *http.Client
	base string
	// lat holds the latency of each successful op, preallocated so the
	// benchmark's own memory does not grow with the op count.
	lat []float64
	st  clientStats
	// jobIDs collects the completed capacity jobs when keepJobIDs is set
	// (traced runs), for their span trees after the timed phase.
	keepJobIDs bool
	jobIDs     []jobRef
}

// clientStats are the client-side counts of one timed phase.
type clientStats struct {
	attempted, failed int
	latSum            time.Duration // summed latency of successful ops
	submit            time.Duration // capacity-jobs: summed submit round trips
	firstFrame        time.Duration // capacity-jobs: summed submit-to-first-SSE-frame
	frames            int           // capacity-jobs: progress frames received
	jobs              int           // capacity-jobs: completed jobs
	checkTime         time.Duration // capacity-jobs: summed sync-endpoint checks
	firstErr          error
}

func newClient(base string, sampleCap int) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, lat: make([]float64, 0, sampleCap)}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// call sends one request and reads the whole body.
func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, b, err
}

var errMismatch = errors.New("response differs from the first response to the same body")

// run executes one op and returns its latency (send to last body byte).
// wrong perturbs the expected bytes, to show that the checks can fail.
func (c *client) run(o *op, wrong bool) (time.Duration, error) {
	if o.kind == "capacity-search" {
		return c.runJob(o, wrong)
	}
	t0 := time.Now()
	status, b, err := c.call(http.MethodPost, "/v1/"+o.kind, o.body)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/%s: status %d: %s", o.kind, status, firstLine(b))
	}
	if wrong && o.firstResp() != nil {
		b = append([]byte{' '}, b...)
	}
	if !o.record(b) {
		return 0, fmt.Errorf("POST /v1/%s: %w", o.kind, errMismatch)
	}
	return lat, nil
}

// runJob submits a capacity-search job, follows its event stream to the
// done frame and fetches the result; the op's latency ends there. It then
// checks the result against the synchronous endpoint's bytes for the
// same body.
func (c *client) runJob(o *op, wrong bool) (time.Duration, error) {
	spec := mustJSON(&service.JobSpec{Type: "capacity-search", Request: o.body})
	t0 := time.Now()
	status, b, err := c.call(http.MethodPost, "/v1/jobs", spec)
	submit := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if status != http.StatusAccepted {
		return 0, fmt.Errorf("POST /v1/jobs: status %d: %s", status, firstLine(b))
	}
	var view service.JobView
	if err := json.Unmarshal(b, &view); err != nil {
		return 0, fmt.Errorf("decoding job view: %w", err)
	}
	frames, first, done, err := c.followEvents(view.ID, t0)
	if err != nil {
		return 0, err
	}
	if done != `{"status":"succeeded"}` {
		return 0, fmt.Errorf("job %s ended with %s", view.ID, done)
	}
	status, result, err := c.call(http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET result of job %s: status %d: %s", view.ID, status, firstLine(result))
	}
	// The synchronous endpoint must answer the same body with the same
	// bytes, from the response cache the job just filled. The check is
	// outside the op's latency but inside the client's request time.
	t1 := time.Now()
	status, sync, err := c.call(http.MethodPost, "/v1/capacity-search", o.body)
	c.st.checkTime += time.Since(t1)
	if err != nil {
		return 0, err
	}
	if wrong {
		sync = append([]byte{' '}, sync...)
	}
	if status != http.StatusOK || !bytes.Equal(result, sync) {
		return 0, fmt.Errorf("job %s: result differs from the sync /v1/capacity-search response (status %d)", view.ID, status)
	}
	c.st.submit += submit
	c.st.firstFrame += first
	c.st.frames += frames
	c.st.jobs++
	if c.keepJobIDs {
		c.jobIDs = append(c.jobIDs, jobRef{id: view.ID, o: o, frames: frames})
	}
	return lat, nil
}

// followEvents reads a job's SSE stream to its done frame, returning the
// number of progress frames, the time from t0 to the first frame, and
// the done frame's data.
func (c *client) followEvents(id string, t0 time.Time) (frames int, first time.Duration, done string, err error) {
	res, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, 0, "", err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return 0, 0, "", fmt.Errorf("GET events of job %s: status %d", id, res.StatusCode)
	}
	br := bufio.NewReader(res.Body)
	var event string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, 0, "", fmt.Errorf("event stream of job %s ended before its done frame: %w", id, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			if first == 0 {
				first = time.Since(t0)
			}
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				// Drain to EOF so the connection is reused.
				io.Copy(io.Discard, br)
				return frames, first, line[len("data: "):], nil
			}
			frames++
		}
	}
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// timedPhase runs the closed loop: every client takes the next schedule
// position, runs it, and repeats until the deadline; ops in flight at the
// deadline complete and count. It returns the phase's wall time, from
// the first send to the last op's completion.
func timedPhase(w *workload, clients []*client, seconds float64, wrong bool) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := w.opAt(int(next.Add(1) - 1))
				c.st.attempted++
				lat, err := c.run(o, wrong)
				if err != nil {
					c.st.failed++
					if c.st.firstErr == nil {
						c.st.firstErr = err
					}
					continue
				}
				c.st.latSum += lat
				if len(c.lat) < cap(c.lat) {
					c.lat = append(c.lat, lat.Seconds()*1e3)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// warmUp runs the workload's set-up ops on the first client and opens
// every client's connection.
func warmUp(w *workload, clients []*client) error {
	for _, c := range clients {
		if status, _, err := c.call(http.MethodGet, "/healthz", nil); err != nil || status != http.StatusOK {
			return fmt.Errorf("health check: status %d, %v", status, err)
		}
	}
	for _, o := range w.warmup {
		if _, err := clients[0].run(o, false); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.kind, err)
		}
	}
	return nil
}
