package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pert/internal/experiments"
)

// flakyExperiment fails its first failures runs, then succeeds.
func flakyExperiment(id string, failures int) experiments.Experiment {
	var calls int32
	return experiments.Experiment{
		ID: id, Title: "transiently failing",
		Run: func(_ context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			if int(atomic.AddInt32(&calls, 1)) <= failures {
				return nil, errors.New("transient failure")
			}
			tab := &experiments.Table{ID: id, Title: "flaky", Header: []string{"ok"}}
			tab.AddRow("1")
			return []*experiments.Table{tab}, nil
		},
	}
}

func TestRetryTransientErrorSucceeds(t *testing.T) {
	var retried []Event
	spec := RunSpec{
		Retries: 2,
		Sink: sinkFunc(func(e Event) {
			if e.Kind == RunRetried {
				retried = append(retried, e)
			}
		}),
	}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{flakyExperiment("flaky", 2)}, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if r.Status != StatusOK || r.Error != "" {
		t.Fatalf("run after retries = %+v, want ok", r)
	}
	if r.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", r.Attempts)
	}
	if rep.Retries != 2 {
		t.Fatalf("report retries = %d, want 2", rep.Retries)
	}
	if len(retried) != 2 {
		t.Fatalf("RunRetried events = %d, want 2", len(retried))
	}
	for i, e := range retried {
		if e.Attempt != i+1 || e.Status != StatusError || e.Backoff <= 0 {
			t.Fatalf("retry event %d = %+v", i, e)
		}
	}
}

func TestRetryExhaustionKeepsLastVerdict(t *testing.T) {
	spec := RunSpec{Retries: 1}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{flakyExperiment("doomed", 99)}, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if r.Status != StatusError {
		t.Fatalf("status = %q, want error", r.Status)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", r.Attempts)
	}
	if rep.Retries != 1 {
		t.Fatalf("report retries = %d, want 1", rep.Retries)
	}
}

// TestCanceledCellNotRetried pins the satellite requirement: a Ctrl-C'd cell
// reports canceled — not timeout, not error — and never burns retry
// attempts.
func TestCanceledCellNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int32
	victim := experiments.Experiment{
		ID: "victim", Title: "canceled mid-run",
		Run: func(runCtx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			atomic.AddInt32(&calls, 1)
			cancel() // the user hits Ctrl-C while this cell runs
			<-runCtx.Done()
			return nil, runCtx.Err()
		},
	}
	// A generous per-run Timeout guarantees the deadline is NOT what fired.
	spec := RunSpec{
		Timeout: time.Hour,
		Retries: 4,
	}
	rep, _ := RunExperiments(ctx, []experiments.Experiment{victim}, spec)
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	r := rep.Runs[0]
	if r.Status != StatusCanceled {
		t.Fatalf("status = %q, want %q (%+v)", r.Status, StatusCanceled, r)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("canceled cell ran %d times, want 1 (retry attempts burned)", got)
	}
	if r.Attempts != 1 || rep.Retries != 0 {
		t.Fatalf("attempts/retries = %d/%d, want 1/0", r.Attempts, rep.Retries)
	}
}

// TestPerRunTimeoutStillTimeout: the canceled status must not swallow real
// per-run deadline expiries when the sweep context is healthy.
func TestPerRunTimeoutStillTimeout(t *testing.T) {
	hang := experiments.Experiment{
		ID: "hang",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{hang},
		RunSpec{Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Status != StatusTimeout {
		t.Fatalf("status = %q, want %q", rep.Runs[0].Status, StatusTimeout)
	}
}

// TestSupervisorKillsWedgedWorker: a worker whose cell ignores its context
// entirely must be SIGKILLed once the deadline budget (Timeout + grace)
// expires, and recorded as a timeout the retry policy may act on.
func TestSupervisorKillsWedgedWorker(t *testing.T) {
	oldGrace := workerKillGrace
	workerKillGrace = 100 * time.Millisecond
	defer func() { workerKillGrace = oldGrace }()

	hang, _ := chaosResolve("chaos-hang")
	spec := RunSpec{Isolate: true, Timeout: 50 * time.Millisecond}
	start := time.Now()
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{hang}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("supervisor took %s to kill a wedged worker", wall)
	}
	r := rep.Runs[0]
	if r.Status != StatusTimeout {
		t.Fatalf("status = %q, want %q (%+v)", r.Status, StatusTimeout, r)
	}
	if !strings.Contains(r.Error, "deadline budget") {
		t.Fatalf("error = %q", r.Error)
	}
}

// TestHardCancelKillsWorker: hard cancellation (the second Ctrl-C) SIGKILLs
// the in-flight worker and records the cell as canceled.
func TestHardCancelKillsWorker(t *testing.T) {
	soft, softCancel := context.WithCancel(context.Background())
	defer softCancel()
	hard, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	ctx := WithHardCancel(soft, hard)

	time.AfterFunc(50*time.Millisecond, hardCancel)
	hang, _ := chaosResolve("chaos-hang")
	start := time.Now()
	rep, err := RunExperiments(ctx, []experiments.Experiment{hang}, RunSpec{Isolate: true})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("hard cancel took %s to kill the worker", wall)
	}
	if rep.Runs[0].Status != StatusCanceled {
		t.Fatalf("status = %q, want %q", rep.Runs[0].Status, StatusCanceled)
	}
}

// TestNotifyShutdownTwoStage: first signal cancels softly, second hardly.
func TestNotifyShutdownTwoStage(t *testing.T) {
	ctx, stop := NotifyShutdown(context.Background())
	defer stop()
	hard := hardDone(ctx)
	if hard == nil {
		t.Fatal("no hard-cancel context attached")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first SIGINT did not cancel the soft context")
	}
	select {
	case <-hard:
		t.Fatal("first SIGINT already hard-canceled")
	default:
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hard:
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGINT did not hard-cancel")
	}
}

// TestRetryBackoffSchedule pins the exponential-doubling-with-jitter shape:
// each delay lands in [d/2, d] where d starts at retryBackoff and doubles
// per retry, capped at maxRetryBackoff.
func TestRetryBackoffSchedule(t *testing.T) {
	for attempt, wantMax := range map[int]time.Duration{
		2:  retryBackoff,
		3:  2 * retryBackoff,
		4:  4 * retryBackoff,
		40: maxRetryBackoff, // capped
		99: maxRetryBackoff, // still capped
	} {
		for i := 0; i < 20; i++ {
			d := backoff(attempt)
			if d < wantMax/2 || d > wantMax {
				t.Fatalf("backoff(%d) = %s, want in [%s, %s]", attempt, d, wantMax/2, wantMax)
			}
		}
	}
	for _, status := range []string{StatusError, StatusTimeout, StatusStalled, StatusCrashed} {
		if !retryable(status) {
			t.Fatalf("%s should be retryable", status)
		}
	}
	for _, status := range []string{StatusOK, StatusCanceled, ""} {
		if retryable(status) {
			t.Fatalf("%s should not be retryable", status)
		}
	}
}

// TestWorkerRejectsGarbageInput: a worker fed garbage exits non-zero rather
// than fabricating a record.
func TestWorkerRejectsGarbageInput(t *testing.T) {
	var stderr strings.Builder
	if code := workerMain(strings.NewReader("not json"), &strings.Builder{}, &stderr); code == 0 {
		t.Fatal("worker accepted garbage input")
	}
	if !strings.Contains(stderr.String(), "bad input") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

// TestWorkerUnopenableCacheFailsCell: a worker whose cache directory cannot
// be opened records an error instead of running the cell uncommitted — the
// parent would otherwise stamp a cache key on a record that was never
// stored.
func TestWorkerUnopenableCacheFailsCell(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := runWorkerCell(context.Background(), workerInput{
		Spec:       RunSpec{Scale: string(experiments.Quick), Cache: CachePolicy{Dir: file}},
		Experiment: "chaos-a",
		Attempt:    1,
	})
	if rec.Status != StatusError || !strings.Contains(rec.Error, "cache:") || len(rec.Tables) != 0 {
		t.Fatalf("record = %+v, want a cache error", rec)
	}
	if !retryable(rec.Status) {
		t.Fatal("a cache failure must be retryable")
	}
}

// TestWorkerRunsCellEndToEnd drives workerMain directly: input in, strict
// record out.
func TestWorkerRunsCellEndToEnd(t *testing.T) {
	in := workerInput{
		Spec:       RunSpec{Scale: string(experiments.Quick)},
		Experiment: "chaos-a",
		Attempt:    4,
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := workerMain(strings.NewReader(string(blob)), &out, os.Stderr); code != 0 {
		t.Fatalf("worker exit = %d", code)
	}
	rec, err := DecodeRunRecord([]byte(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "chaos-a" || rec.Status != StatusOK || rec.Attempts != 4 {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(rec.Tables))
	}
}
