package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pert/internal/cache"
	"pert/internal/experiments"
	"pert/internal/obs"
	"pert/internal/sim"
)

// maxStallDumpLines bounds the flight-recorder text appended to a
// stalled-run error, keeping report entries readable when many recorders are
// active.
const maxStallDumpLines = 400

// progressInterval is the period of the Progress events a Sink receives
// while a cell runs.
const progressInterval = time.Second

// mallocCount reads the process's cumulative heap-object allocation count.
// Deltas across a sequential run attribute its allocations (see
// RunRecord.Mallocs for the caveats).
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Run executes the sweep the spec describes — its registry experiments in
// order, then its inline scenario cell — and returns the aggregated report.
// Per-run failures (panics, bad specs, unknown IDs, per-run timeouts) become
// RunRecord.Error entries and the sweep continues; only cancellation of ctx
// stops the sweep early, returning the partial report alongside ctx's
// error. The report is never nil.
//
// With spec.Cache enabled, the sweep partitions into cache hits and misses:
// hits replay their committed RunRecord without simulating (marked
// `cached` in the report), misses run under a lockfile claim and commit
// atomically on success — so a killed sweep resumes exactly where it
// stopped, and concurrent worker processes sharing the cache directory
// split the sweep between them (a loser of a claim race waits for the
// winner's commit instead of recomputing).
func Run(ctx context.Context, spec RunSpec) (*Report, error) {
	return RunExperiments(ctx, spec.cells(), spec)
}

// RunExperiments is Run for a caller-supplied experiment list (tests and
// custom sweeps); spec.Experiments and spec.Scenario are ignored. Cached
// cells are keyed by experiment ID, so custom runners must be deterministic
// functions of (ID, scale, seed, code version) to share a cache directory.
func RunExperiments(ctx context.Context, exps []experiments.Experiment, spec RunSpec) (*Report, error) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Version:       Version(),
		Scale:         string(spec.scale()),
		StartedAt:     time.Now().UTC(),
	}
	if err := spec.Validate(); err != nil {
		return rep, err
	}
	workers := spec.Workers
	if workers < 1 {
		workers = experiments.Workers(ctx)
	}
	ctx = experiments.WithWorkers(ctx, workers)
	ctx = experiments.WithShards(ctx, spec.Shards) // no-op when < 1
	rep.Workers = workers

	var store *cache.Store
	if spec.Cache.Dir != "" {
		s, err := cache.Open(spec.Cache.Dir)
		if err != nil {
			return rep, err
		}
		store = s
		rep.CacheDir = s.Dir()
	}

	var sink Sink
	if spec.Sink != nil {
		sink = &lockedSink{s: spec.Sink}
	}

	start := time.Now()
	ev0, _ := sim.Counters()
	m0 := mallocCount()

	var doneWall time.Duration
	for i, exp := range exps {
		if err := ctx.Err(); err != nil {
			finish(rep, start, spec.Isolate, ev0, m0)
			return rep, err
		}
		rec := runCellAttempts(ctx, exp, spec, store, sink, i, len(exps), doneWall)
		if rec.Cached {
			rep.CacheHits++
		} else if store != nil {
			rep.CacheMisses++
		}
		if rec.Attempts > 1 {
			rep.Retries += rec.Attempts - 1
		}
		doneWall += time.Duration(rec.WallSeconds * float64(time.Second))
		rep.Runs = append(rep.Runs, rec)
	}
	finish(rep, start, spec.Isolate, ev0, m0)
	return rep, nil
}

// finish fills the report's sweep-wide timing and allocation fields. The
// sweep's events are this process's engine counter over the sweep, so a
// replayed cell that simulates still shows; under isolate the parent
// simulates nothing itself and the workers' runs that were not replayed
// are added, so the count matches an in-process sweep.
func finish(rep *Report, start time.Time, isolate bool, ev0, m0 uint64) {
	ev1, _ := sim.Counters()
	rep.WallSeconds = time.Since(start).Seconds()
	rep.SimEvents = ev1 - ev0
	if isolate {
		for _, r := range rep.Runs {
			if !r.Cached {
				rep.SimEvents += r.SimEvents
			}
		}
	}
	if rep.WallSeconds > 0 {
		rep.EventsPerSecond = float64(rep.SimEvents) / rep.WallSeconds
	}
	rep.Mallocs = mallocCount() - m0
	if rep.SimEvents > 0 {
		rep.AllocsPerEvent = float64(rep.Mallocs) / float64(rep.SimEvents)
	}
}

// runCell resolves one sweep cell against the cache: replay a committed
// entry, or claim the cell and execute and commit it, waiting out another
// worker's claim first. A cell runs uncached only when there is no cache or
// it has no stable key; a cache that cannot claim the cell fails it.
func runCell(ctx context.Context, exp experiments.Experiment, spec RunSpec,
	store *cache.Store, sink Sink, index, total int, doneWall time.Duration, attempt int) RunRecord {

	key := cellKey(spec, exp)
	if store == nil || key == "" {
		return runOne(ctx, exp, spec, spec.MetricsDir, sink, index, total, doneWall, attempt)
	}
	for {
		if rec, ok := replayCell(store, key, exp, sink, index, total); ok {
			return rec
		}
		claim, err := store.Claim(key)
		if err != nil {
			rec := failedRecord(exp, spec, StatusError, err.Error(), attempt)
			rec.CacheKey = key
			return rec
		}
		if claim != nil {
			// The previous owner may have committed between our miss and
			// our claim; computing again would publish nothing new.
			if rec, ok := replayCell(store, key, exp, sink, index, total); ok {
				claim.Release()
				return rec
			}
			return computeAndCommit(ctx, exp, spec, key, claim, sink, index, total, doneWall, attempt)
		}
		// Another live worker owns this cell: wait for it to commit (replay
		// on the next pass) or to release without committing (claim again).
		if _, err := store.Wait(ctx, key, 0); err != nil {
			status := StatusError
			if ctx.Err() != nil {
				status = StatusCanceled // the sweep was interrupted, not the cell
			}
			rec := failedRecord(exp, spec, status, err.Error(), attempt)
			rec.CacheKey = key
			return rec
		}
	}
}

// failedRecord is the record of a cell that ended without running to a
// verdict of its own: a cache or worker failure, or an interrupted wait.
func failedRecord(exp experiments.Experiment, spec RunSpec, status, msg string, attempt int) RunRecord {
	return RunRecord{ID: exp.ID, Title: exp.Title, Scale: string(spec.scale()),
		Status: status, Error: msg, Attempts: attempt, Tables: []*experiments.Table{}}
}

// cellKey returns the cell's content address, or "" when the spec or cell
// is not cacheable (no cache configured, or no key could be computed).
func cellKey(spec RunSpec, exp experiments.Experiment) string {
	if spec.Cache.Dir == "" {
		return ""
	}
	var key string
	var err error
	if spec.Scenario != nil && exp.ID == ScenarioCellID(spec.Scenario) {
		key, err = spec.ScenarioKey(Version())
	} else {
		key, err = spec.CellKey(exp.ID, Version())
	}
	if err != nil {
		return ""
	}
	return key
}

// replayCell replays a committed cache entry as this sweep's record for the
// cell: the stored RunRecord byte-for-byte (timings included) plus the
// cached/cache_key markers, with series paths re-discovered under the cell
// so vanished files never surface as errors. A corrupt record is evicted
// and reported as a miss so the cell recomputes.
func replayCell(store *cache.Store, key string, exp experiments.Experiment,
	sink Sink, index, total int) (RunRecord, bool) {

	entry, ok, err := store.Get(key)
	if err != nil || !ok {
		return RunRecord{}, false
	}
	rec, err := DecodeRunRecord(entry.Record)
	if err != nil {
		store.Evict(key)
		return RunRecord{}, false
	}
	rec.Cached = true
	rec.CacheKey = key
	rec.SeriesPaths = experiments.SeriesPaths(filepath.Join(entry.Dir, cache.SeriesDirName), exp.ID)
	if rec.Tables == nil {
		rec.Tables = []*experiments.Table{}
	}
	if sink != nil {
		sink.Event(Event{Kind: RunStarted, ID: exp.ID, Index: index, Total: total})
		var err error
		if rec.Error != "" {
			err = errors.New(rec.Error)
		}
		sink.Event(Event{
			Kind: RunFinished, ID: exp.ID, Index: index, Total: total,
			Err: err, Status: rec.Status, Cached: true,
			SimEvents: rec.SimEvents, SimSeconds: rec.SimSeconds, Tables: rec.Tables,
		})
	}
	return rec, true
}

// computeAndCommit runs a claimed cell and publishes the result. Only
// healthy runs commit: errors, timeouts, and stalls release the claim so
// the cell recomputes on the next attempt, and a failed commit fails the
// cell. A StatusOK run commits even when the sweep was cancelled right
// after it — the cell is complete and deterministic, and keeping it is what
// makes a killed sweep resume from the exact cell that was in flight
// instead of one earlier.
func computeAndCommit(ctx context.Context, exp experiments.Experiment, spec RunSpec,
	key string, claim *cache.Claim, sink Sink, index, total int, doneWall time.Duration, attempt int) RunRecord {

	metricsRoot := ""
	if spec.metricsOn() {
		metricsRoot = claim.SeriesDir()
	}
	rec := runOne(ctx, exp, spec, metricsRoot, sink, index, total, doneWall, attempt)
	rec.CacheKey = key
	if rec.Status != StatusOK {
		claim.Release()
		rec.SeriesPaths = nil // staged series are discarded with the claim
		return rec
	}
	// Series were staged under the claim; the committed cell is their
	// canonical address.
	finalSeries := filepath.Join(claim.Dir(), cache.SeriesDirName)
	for i, p := range rec.SeriesPaths {
		if rel, err := filepath.Rel(claim.SeriesDir(), p); err == nil && !strings.HasPrefix(rel, "..") {
			rec.SeriesPaths[i] = filepath.Join(finalSeries, rel)
		}
	}
	blob, err := json.Marshal(rec)
	if err == nil {
		_, err = claim.Commit(blob)
	}
	if err != nil {
		// An uncommitted cell would pass here and recompute on every later
		// sweep without saying why: fail it, retryably, with the cache's
		// message. The simulation did run, so its cost stays on the record.
		// Release is idempotent if Commit already cleaned up.
		claim.Release()
		failed := failedRecord(exp, spec, StatusError, err.Error(), attempt)
		failed.CacheKey = key
		failed.WallSeconds, failed.SimEvents, failed.SimSeconds = rec.WallSeconds, rec.SimEvents, rec.SimSeconds
		return failed
	}
	return rec
}

// runOne executes one experiment with panic recovery, an optional per-run
// timeout, and a progress ticker sampling the sim event counters. When
// metricsRoot is non-empty the run's time series stream under it.
func runOne(ctx context.Context, exp experiments.Experiment, spec RunSpec,
	metricsRoot string, sink Sink, index, total int, doneWall time.Duration, attempt int) RunRecord {

	emit := func(e Event) {
		if sink != nil {
			sink.Event(e)
		}
	}
	scale := spec.scale()
	rec := RunRecord{ID: exp.ID, Title: exp.Title, Scale: string(scale),
		Attempts: attempt, Tables: []*experiments.Table{}}
	emit(Event{Kind: RunStarted, ID: exp.ID, Index: index, Total: total})

	if metricsRoot != "" {
		ctx = experiments.WithMetrics(ctx, experiments.MetricsConfig{
			Dir:      metricsRoot,
			Interval: sim.Duration(spec.MetricsInterval),
		})
	}
	runCtx, cancel := context.WithCancel(ctx)
	if spec.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, spec.Timeout)
	}
	defer cancel()

	ev0, st0 := sim.Counters()
	m0 := mallocCount()
	start := time.Now()

	var stopProgress chan struct{}
	if sink != nil {
		stopProgress = make(chan struct{})
		go func() {
			tick := time.NewTicker(progressInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					emit(progressEvent(exp.ID, index, total, start, ev0, st0, doneWall))
				}
			}
		}()
	}

	tables, err, stalled := watchRun(runCtx, cancel, exp, scale, spec.StallWindow)
	wall := time.Since(start)
	if stopProgress != nil {
		close(stopProgress)
	}

	ev1, st1 := sim.Counters()
	rec.WallSeconds = wall.Seconds()
	rec.SimEvents = ev1 - ev0
	rec.SimSeconds = (st1 - st0).Seconds()
	if rec.WallSeconds > 0 {
		rec.EventsPerSecond = float64(rec.SimEvents) / rec.WallSeconds
	}
	rec.Mallocs = mallocCount() - m0
	if rec.SimEvents > 0 {
		rec.AllocsPerEvent = float64(rec.Mallocs) / float64(rec.SimEvents)
	}
	switch {
	case stalled:
		rec.Status = StatusStalled
	case err != nil && ctx.Err() != nil:
		// The sweep's own context died, not the per-run deadline: the cell
		// was interrupted, and retrying it against a dead context is futile.
		rec.Status = StatusCanceled
	case err != nil && (errors.Is(err, context.DeadlineExceeded) || runCtx.Err() == context.DeadlineExceeded):
		rec.Status = StatusTimeout
	case err != nil:
		rec.Status = StatusError
	default:
		rec.Status = StatusOK
	}
	if err != nil {
		rec.Error = err.Error()
	} else if tables != nil {
		rec.Tables = tables
	}
	rec.SeriesPaths = experiments.SeriesPaths(metricsRoot, exp.ID)
	emit(Event{
		Kind: RunFinished, ID: exp.ID, Index: index, Total: total,
		Err: err, Status: rec.Status, Wall: wall, SimEvents: rec.SimEvents,
		EventsPerSec: rec.EventsPerSecond, SimSeconds: rec.SimSeconds,
		SimPerWall: rec.SimSeconds / wall.Seconds(), Tables: tables,
	})
	return rec
}

// watchRun executes the experiment in its own goroutine and, when a
// stall window is set, polls the process-wide sim counters; a window with no
// advance abandons the run (the goroutine is left behind — runCtx is
// canceled so a cooperative runner exits at its next checkpoint, but a truly
// wedged one leaks until process exit, which is the graceful-degradation
// trade the watchdog makes to keep the sweep alive).
func watchRun(runCtx context.Context, cancel context.CancelFunc, exp experiments.Experiment,
	scale experiments.Scale, window time.Duration) (tables []*experiments.Table, err error, stalled bool) {

	type runResult struct {
		tables []*experiments.Table
		err    error
	}
	done := make(chan runResult, 1) // buffered: an abandoned run must not block sending
	go func() {
		t, e := safeRun(runCtx, exp, scale)
		done <- runResult{t, e}
	}()

	if window <= 0 {
		r := <-done
		return r.tables, r.err, false
	}

	poll := window / 8
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	lastEv, _ := sim.Counters()
	lastAdvance := time.Now()
	for {
		select {
		case r := <-done:
			return r.tables, r.err, false
		case <-tick.C:
			if ev, _ := sim.Counters(); ev != lastEv {
				lastEv, lastAdvance = ev, time.Now()
			} else if time.Since(lastAdvance) >= window {
				cancel()
				msg := fmt.Sprintf("harness: %s made no sim progress for %s; run abandoned as stalled",
					exp.ID, window)
				// A metrics-enabled run leaves active flight recorders; their
				// trailing series window is the stall's repro bundle.
				if dump := obs.ActiveFlightDumps(maxStallDumpLines); dump != "" {
					msg += "\n" + dump
				}
				return nil, errors.New(msg), true
			}
		}
	}
}

// progressEvent samples the process-wide sim counters and estimates the
// sweep's remaining time from the average wall time of completed runs.
func progressEvent(id string, index, total int, start time.Time, ev0 uint64, st0 sim.Time, doneWall time.Duration) Event {
	ev, st := sim.Counters()
	wall := time.Since(start)
	e := Event{
		Kind: Progress, ID: id, Index: index, Total: total,
		Wall: wall, SimEvents: ev - ev0, SimSeconds: (st - st0).Seconds(),
	}
	if ws := wall.Seconds(); ws > 0 {
		e.EventsPerSec = float64(e.SimEvents) / ws
		e.SimPerWall = e.SimSeconds / ws
	}
	if index > 0 {
		avg := doneWall / time.Duration(index)
		remaining := avg * time.Duration(total-index-1)
		if avg > wall {
			remaining += avg - wall
		}
		e.ETA = remaining
	}
	return e
}

// safeRun invokes the experiment's runner, converting a panic anywhere in
// the scenario (bad scheme deep inside a topology builder, for example)
// into an error attributed to this run.
func safeRun(ctx context.Context, exp experiments.Experiment, scale experiments.Scale) (tables []*experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: %s panicked: %v", exp.ID, r)
		}
	}()
	if exp.Run == nil {
		return nil, fmt.Errorf("harness: experiment %q has no runner", exp.ID)
	}
	return exp.Run(ctx, scale)
}
