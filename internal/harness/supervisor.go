package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"pert/internal/cache"
	"pert/internal/experiments"
)

// workerKillGrace pads the supervisor's per-cell deadline budget beyond the
// spec's own per-run Timeout: the worker enforces Timeout itself and reports
// a clean timeout record, so the parent only SIGKILLs workers that are too
// wedged to do even that. Overridable in tests.
var workerKillGrace = 10 * time.Second

// hardCancelKey carries a second, harsher cancellation context through the
// sweep context: soft cancel (the ctx passed to Run) drains in-flight
// workers, hard cancel SIGKILLs them. A context value rather than a
// parameter so Run's signature — and every test calling it — stays put.
type hardCancelKey struct{}

// WithHardCancel attaches hard as ctx's emergency-stop companion. When hard
// is canceled, isolated workers are SIGKILLed instead of drained.
func WithHardCancel(ctx, hard context.Context) context.Context {
	return context.WithValue(ctx, hardCancelKey{}, hard)
}

// hardDone returns the hard-cancel channel, or nil (blocks forever in a
// select) when no hard context is attached.
func hardDone(ctx context.Context) <-chan struct{} {
	if h, ok := ctx.Value(hardCancelKey{}).(context.Context); ok {
		return h.Done()
	}
	return nil
}

// NotifyShutdown wires SIGINT/SIGTERM into the two-stage shutdown protocol:
// the first signal cancels the returned context softly (the sweep drains the
// in-flight cell, flushes a partial report, and leaves the cache resumable),
// a second signal escalates to hard cancel (in-flight workers are SIGKILLed;
// their cache claims break by PID-death). The returned stop releases the
// signal handler; call it when the sweep finishes.
func NotifyShutdown(parent context.Context) (context.Context, context.CancelFunc) {
	soft, softCancel := context.WithCancel(parent)
	hard, hardCancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			fmt.Fprintln(os.Stderr, "interrupted: finishing in-flight cell, then writing a partial report (interrupt again to kill)")
			softCancel()
		case <-soft.Done():
			return
		}
		select {
		case <-ch:
			fmt.Fprintln(os.Stderr, "interrupted again: killing in-flight workers")
			hardCancel()
		case <-hard.Done():
		}
	}()
	stop := func() {
		signal.Stop(ch)
		softCancel()
		hardCancel()
	}
	return WithHardCancel(soft, hard), stop
}

// runCellAttempts wraps one cell in spec.Retries: execute (isolated or
// in-process), and while the verdict is transient — error, timeout, stalled,
// crashed — and retries remain, back off with jitter and re-run. Cached
// replays and canceled cells never retry; cancellation during backoff
// returns the last verdict without burning the remaining attempts.
func runCellAttempts(ctx context.Context, exp experiments.Experiment, spec RunSpec,
	store *cache.Store, sink Sink, index, total int, doneWall time.Duration) RunRecord {

	for attempt := 1; ; attempt++ {
		var rec RunRecord
		if spec.Isolate {
			rec = runCellIsolated(ctx, exp, spec, store, sink, index, total, attempt)
		} else {
			rec = runCell(ctx, exp, spec, store, sink, index, total, doneWall, attempt)
		}
		if !rec.Cached && rec.Attempts == 0 {
			rec.Attempts = attempt
		}
		if rec.Cached || !retryable(rec.Status) || attempt > spec.Retries {
			return rec
		}
		delay := backoff(attempt + 1)
		if sink != nil {
			sink.Event(Event{Kind: RunRetried, ID: exp.ID, Index: index, Total: total,
				Status: rec.Status, Err: errors.New(rec.Error), Attempt: attempt, Backoff: delay})
		}
		select {
		case <-ctx.Done():
			return rec
		case <-time.After(delay):
		}
	}
}

// runCellIsolated resolves one cell through a re-exec'd worker process.
// Replay still happens parent-side — warm sweeps never pay a process spawn,
// and a cache read cannot crash anything worth isolating — but claim,
// compute and commit all run in the child, so the claim's lockfile PID is
// the child's and a SIGKILLed cell breaks its own claim by PID-death.
func runCellIsolated(ctx context.Context, exp experiments.Experiment, spec RunSpec,
	store *cache.Store, sink Sink, index, total, attempt int) RunRecord {

	key := cellKey(spec, exp)
	if store != nil && key != "" {
		if rec, ok := replayCell(store, key, exp, sink, index, total); ok {
			return rec
		}
	}
	if sink != nil {
		sink.Event(Event{Kind: RunStarted, ID: exp.ID, Index: index, Total: total})
	}
	start := time.Now()
	rec := superviseWorker(ctx, exp, spec, attempt)
	if rec.CacheKey == "" {
		rec.CacheKey = key
	}
	if sink != nil {
		var err error
		if rec.Error != "" {
			err = errors.New(rec.Error)
		}
		sink.Event(Event{
			Kind: RunFinished, ID: exp.ID, Index: index, Total: total,
			Err: err, Status: rec.Status, Wall: time.Since(start),
			SimEvents: rec.SimEvents, SimSeconds: rec.SimSeconds, Tables: rec.Tables,
		})
	}
	return rec
}

// superviseWorker spawns one worker process for the cell and adjudicates its
// exit: a clean exit yields the worker's own RunRecord; a death (OOM kill,
// fatal runtime error, injected crash) yields StatusCrashed; exceeding the
// deadline budget (spec.Timeout + workerKillGrace) yields StatusTimeout; a
// hard cancel SIGKILLs the worker's process group and yields StatusCanceled.
// Soft cancellation deliberately does not kill — the sweep loop stops
// starting new cells while the in-flight one drains.
func superviseWorker(ctx context.Context, exp experiments.Experiment, spec RunSpec, attempt int) RunRecord {
	fail := func(status, msg string) RunRecord { return failedRecord(exp, spec, status, msg, attempt) }
	exe, err := os.Executable()
	if err != nil {
		return fail(StatusCrashed, fmt.Sprintf("harness: cannot locate worker executable: %v", err))
	}
	input, err := json.Marshal(workerInput{Spec: spec.forWorker(), Experiment: exp.ID, Attempt: attempt})
	if err != nil {
		return fail(StatusError, fmt.Sprintf("harness: cannot serialize worker input: %v", err))
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stdin = bytes.NewReader(input)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// Own process group: a terminal Ctrl-C must reach only the parent (which
	// drains), and a hard kill can take the worker's whole subtree at once.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fail(StatusCrashed, fmt.Sprintf("harness: starting worker: %v", err))
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()

	var budget <-chan time.Time
	if spec.Timeout > 0 {
		t := time.NewTimer(spec.Timeout + workerKillGrace)
		defer t.Stop()
		budget = t.C
	}
	hard := hardDone(ctx)
	kill := func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-waitCh
	}
	select {
	case err := <-waitCh:
		wall := time.Since(start)
		if err != nil {
			rec := fail(StatusCrashed, fmt.Sprintf("harness: worker for %s died: %v", exp.ID, err))
			rec.WallSeconds = wall.Seconds()
			return rec
		}
		rec, derr := DecodeRunRecord(out.Bytes())
		if derr != nil {
			r := fail(StatusCrashed, fmt.Sprintf("harness: worker for %s returned garbage: %v", exp.ID, derr))
			r.WallSeconds = wall.Seconds()
			return r
		}
		return rec
	case <-budget:
		kill()
		rec := fail(StatusTimeout, fmt.Sprintf("harness: worker for %s exceeded deadline budget %s; killed",
			exp.ID, spec.Timeout+workerKillGrace))
		rec.WallSeconds = time.Since(start).Seconds()
		return rec
	case <-hard:
		kill()
		rec := fail(StatusCanceled, "harness: sweep killed while cell was in flight")
		rec.WallSeconds = time.Since(start).Seconds()
		return rec
	}
}
