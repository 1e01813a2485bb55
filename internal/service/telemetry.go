package service

import (
	"strconv"

	"jellyfish/internal/capsearch"
	"jellyfish/internal/faultinject"
	"jellyfish/internal/mcf"
	"jellyfish/internal/persist"
	"jellyfish/internal/telemetry"
)

// The service's telemetry bundle: every metric slot and flight recorder
// the daemon owns, registered once at construction and surfaced on
// GET /metrics (Prometheus text format) and GET /v1/trace/{id} (the
// recorded span tree of a finished job). A nil *tele — the
// Options.DisableTelemetry configuration — disables everything through
// the instruments' nil-safety; there is no second code path, which is
// what the byte-identity tests in telemetry_test.go rely on.
//
// Confinement: counters and histograms are shared atomics and may be
// written from any goroutine; each shard worker's flight Recorder is
// confined to that worker's goroutine (workerTele), and the *Trace
// trees it extracts are immutable and shared freely. Telemetry is
// one-way — nothing read from an instrument may influence a response —
// and jellyvet's obsconfine analyzer enforces that across the package.

// recorderSpans is each shard worker's flight-recorder window: the ring
// holds the most recent completed spans, so a trace covers roughly this
// many probe/trial/phase spans before truncation (Trace.Dropped counts
// the overflow). At ~56 bytes a span this is ~56 KiB per worker.
const recorderSpans = 1024

// ops enumerates the planning operations for per-op duration series.
var ops = []string{"design", "evaluate", "capacity-search", "whatif", "rewire-plan"}

// cacheTiers enumerates the warm-state cache tiers for hit/miss series.
var cacheTiers = []string{"resp", "family", "chain", "sim"}

// workerTele is one shard worker's telemetry: the goroutine-confined
// flight recorder plus that worker's per-tier cache counters and the
// kernel observability bundles threaded into solver and search calls.
// The zero value (telemetry disabled) records nothing — every field is
// nil and every instrument is nil-safe.
//
//jellyvet:confined
type workerTele struct {
	rec *telemetry.Recorder

	respHits, respMisses     *telemetry.Counter
	familyHits, familyMisses *telemetry.Counter
	chainHits, chainMisses   *telemetry.Counter
	simHits, simMisses       *telemetry.Counter

	// search carries the worker's recorder and the shared kernel
	// counters into capacity searches (capsearch.probe > capsearch.trial
	// > mcf.solve spans); search.Solver is the matching mcf bundle.
	search *capsearch.Obs
}

// tele is the server-wide bundle behind /metrics. Nil means telemetry
// is disabled; every method is nil-receiver-safe.
type tele struct {
	reg *telemetry.Registry

	opDur     map[string]*telemetry.Histogram
	queueWait *telemetry.Histogram
	sseSubs   *telemetry.Gauge
	replayDur *telemetry.Histogram
	store     *persist.Obs

	// Failure-containment families (DESIGN.md §16).
	panics        *telemetry.Counter
	degradedState *telemetry.Gauge
	degradedFlips *telemetry.Counter
	quotaRejects  *telemetry.Counter

	workers []*workerTele
}

// newTele builds the registry and every fixed instrument slot for a
// daemon with the given worker count. Registration order groups series
// of one family together so the exposition renders each family as one
// block.
func newTele(workers int) *tele {
	reg := telemetry.NewRegistry()
	t := &tele{
		reg:     reg,
		opDur:   make(map[string]*telemetry.Histogram, len(ops)),
		workers: make([]*workerTele, workers),
	}
	for i := range t.workers {
		t.workers[i] = &workerTele{rec: telemetry.NewRecorder(recorderSpans)}
	}

	for _, op := range ops {
		t.opDur[op] = reg.Histogram("jellyfishd_op_duration_seconds",
			"Cold execution time of one planning operation on its shard worker (cache hits excluded).",
			telemetry.Labels("op", op))
	}
	t.queueWait = reg.Histogram("jellyfishd_scheduler_queue_wait_seconds",
		"Time a task spent queued on its shard before execution began.", "")
	t.sseSubs = reg.Gauge("jellyfishd_sse_subscribers",
		"Currently connected job event-stream (SSE) subscribers.", "")
	t.replayDur = reg.Histogram("jellyfishd_jobstore_replay_seconds",
		"Durable job store replay time at boot (snapshot parse + journal apply + job relaunch).", "")
	t.panics = reg.Counter("jellyfishd_panics_contained_total",
		"Kernel panics recovered on a shard worker (job failed, warm state discarded, worker kept alive).", "")
	t.degradedState = reg.Gauge("jellyfishd_degraded",
		"1 while the daemon is serving read-only after persist-write failures, 0 when healthy.", "")
	t.degradedFlips = reg.Counter("jellyfishd_degraded_transitions_total",
		"Healthy-to-degraded transitions of the durable job store.", "")
	t.quotaRejects = reg.Counter("jellyfishd_quota_rejected_total",
		"Requests shed with 429 by the per-client quota layer.", "")
	reg.CounterFunc("jellyfishd_faultinject_fires_total",
		"Failpoint firings under the active fault schedule (0 outside chaos runs).", "",
		//jellyvet:allow faultconfine -- scrape-time counter read, not a failpoint: runs on /metrics requests only, never on a response path
		func() int64 { return int64(faultinject.FireCount()) })
	t.store = &persist.Obs{
		Appends: reg.Counter("jellyfishd_jobstore_appends_total",
			"Journal records appended to the durable job store.", ""),
		Snapshots: reg.Counter("jellyfishd_jobstore_snapshots_total",
			"Snapshots written by the durable job store.", ""),
		AppendDur: reg.Histogram("jellyfishd_jobstore_append_seconds",
			"Journal append latency (write reaching the kernel).", ""),
		SnapshotDur: reg.Histogram("jellyfishd_jobstore_snapshot_seconds",
			"Snapshot write latency (temp file, fsync, rename, journal reset).", ""),
	}

	for _, tier := range cacheTiers {
		for i, wt := range t.workers {
			c := reg.Counter("jellyfishd_cache_hits_total",
				"Warm-state cache hits by worker and tier.",
				telemetry.Labels("worker", strconv.Itoa(i), "tier", tier))
			switch tier {
			case "resp":
				wt.respHits = c
			case "family":
				wt.familyHits = c
			case "chain":
				wt.chainHits = c
			case "sim":
				wt.simHits = c
			}
		}
	}
	for _, tier := range cacheTiers {
		for i, wt := range t.workers {
			c := reg.Counter("jellyfishd_cache_misses_total",
				"Warm-state cache misses by worker and tier.",
				telemetry.Labels("worker", strconv.Itoa(i), "tier", tier))
			switch tier {
			case "resp":
				wt.respMisses = c
			case "family":
				wt.familyMisses = c
			case "chain":
				wt.chainMisses = c
			case "sim":
				wt.simMisses = c
			}
		}
	}

	// Kernel-level instruments are shared across workers (they are plain
	// atomics); only the flight recorder is per-worker.
	solver := &mcf.Obs{
		Solves: reg.Counter("jellyfishd_solver_solves_total",
			"Complete max-concurrent-flow solves.", ""),
		Phases: reg.Counter("jellyfishd_solver_phases_total",
			"Garg–Könemann phases across all solves.", ""),
		Batches: reg.Counter("jellyfishd_solver_batches_total",
			"Source-batch Dijkstra sweeps across all phases.", ""),
		DualRefreshes: reg.Counter("jellyfishd_solver_dual_refreshes_total",
			"Dual upper-bound refreshes across all solves.", ""),
		SolveDur: reg.Histogram("jellyfishd_solver_solve_seconds",
			"Wall time of one complete solve.", ""),
		PhaseDur: reg.Histogram("jellyfishd_solver_phase_seconds",
			"Wall time of one Garg–Könemann phase.", ""),
	}
	probes := reg.Counter("jellyfishd_capsearch_probes_total",
		"Capacity-search feasibility probes.", "")
	trials := reg.Counter("jellyfishd_capsearch_trials_total",
		"Capacity-search trial evaluations.", "")
	probeDur := reg.Histogram("jellyfishd_capsearch_probe_seconds",
		"Wall time of one feasibility probe (all its trials).", "")
	for _, wt := range t.workers {
		wt.search = &capsearch.Obs{
			Probes:   probes,
			Trials:   trials,
			ProbeDur: probeDur,
			Rec:      wt.rec,
			Solver:   &mcf.Obs{Solves: solver.Solves, Phases: solver.Phases, Batches: solver.Batches, DualRefreshes: solver.DualRefreshes, SolveDur: solver.SolveDur, PhaseDur: solver.PhaseDur, Rec: wt.rec},
		}
	}
	return t
}

// bindScheduler registers the scheduler's series: read-out bridges over
// per-worker queue depth and cache size, then the scheduler's own dedup
// and sync-shed counters. Called once, right after the scheduler is
// built.
func (t *tele) bindScheduler(s *scheduler) {
	if t == nil {
		return
	}
	for i, w := range s.workers {
		t.reg.GaugeFunc("jellyfishd_scheduler_queue_depth",
			"Tasks queued on the shard worker.",
			telemetry.Labels("worker", strconv.Itoa(i)),
			func() int64 { return int64(len(w.queue)) })
	}
	for i, w := range s.workers {
		t.reg.GaugeFunc("jellyfishd_cache_entries",
			"Entries across the worker's warm-state cache tiers.",
			telemetry.Labels("worker", strconv.Itoa(i)), w.cacheLen.Load)
	}
	s.deduped = t.reg.Counter("jellyfishd_sched_deduped_total",
		"Requests coalesced onto an identical in-flight execution.", "")
	s.syncRejected = t.reg.Counter("jellyfishd_sync_rejected_total",
		"Synchronous requests shed with 429 at the admission gate.", "")
}

// worker returns shard i's telemetry (an inert zero bundle when
// telemetry is disabled, so worker code never branches on enablement).
func (t *tele) worker(i int) *workerTele {
	if t == nil {
		return &workerTele{}
	}
	return t.workers[i]
}

// opDurH returns the duration histogram for one operation (nil when
// telemetry is disabled or the op is unknown; nil histograms discard).
func (t *tele) opDurH(op string) *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.opDur[op]
}

// queueWaitH returns the shard queue-wait histogram.
func (t *tele) queueWaitH() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.queueWait
}

// sse returns the SSE subscriber gauge.
func (t *tele) sse() *telemetry.Gauge {
	if t == nil {
		return nil
	}
	return t.sseSubs
}

// panicsContained returns the recovered-kernel-panic counter.
func (t *tele) panicsContained() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.panics
}

// degradedGauge returns the degraded-mode state gauge (1 = degraded).
func (t *tele) degradedGauge() *telemetry.Gauge {
	if t == nil {
		return nil
	}
	return t.degradedState
}

// degradedTransitions returns the healthy→degraded transition counter.
func (t *tele) degradedTransitions() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.degradedFlips
}

// quotaRejected returns the per-client quota rejection counter.
func (t *tele) quotaRejected() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.quotaRejects
}

// replayH returns the job store replay-duration histogram.
func (t *tele) replayH() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.replayDur
}

// storeObs returns the persist-layer bundle to attach to the job store.
func (t *tele) storeObs() *persist.Obs {
	if t == nil {
		return nil
	}
	return t.store
}
