package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pert/internal/experiments"
)

// cacheSpec returns a RunSpec pointing at dir with a deterministic identity.
func cacheSpec(dir string) RunSpec {
	return RunSpec{Scale: string(experiments.Quick), Cache: CachePolicy{Dir: dir}}
}

// normalizeReport zeroes every field that legitimately differs between two
// executions of the same deterministic sweep — wallclock timings,
// allocation counts, build/version stamps, and the cache metadata itself —
// leaving exactly the payload the cache promises to reproduce byte-for-byte.
func normalizeReport(rep *Report) {
	rep.Version = ""
	rep.StartedAt = time.Time{}
	rep.WallSeconds = 0
	rep.EventsPerSecond = 0
	rep.Mallocs = 0
	rep.AllocsPerEvent = 0
	rep.SimEvents = 0 // sweep-wide counter excludes replayed cells by design
	rep.CacheDir = ""
	rep.CacheHits = 0
	rep.CacheMisses = 0
	rep.Retries = 0
	for i := range rep.Runs {
		r := &rep.Runs[i]
		r.WallSeconds = 0
		r.EventsPerSecond = 0
		r.Mallocs = 0
		r.AllocsPerEvent = 0
		r.Cached = false
		r.CacheKey = ""
		r.Attempts = 0
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillAndResumeByteIdentical is the ISSUE's acceptance scenario: a sweep
// killed mid-run and restarted into the same cache completes by simulating
// only the unfinished cells, and the final report — minus cache metadata
// and wallclock noise — is byte-identical to an uninterrupted run's.
func TestKillAndResumeByteIdentical(t *testing.T) {
	exps := []experiments.Experiment{simExperiment("a"), simExperiment("b"), simExperiment("c")}

	// Uninterrupted baseline into its own cache directory.
	base, err := RunExperiments(context.Background(), exps, cacheSpec(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	// Kill the second sweep after its first cell completes.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := cacheSpec(dir)
	spec.Sink = sinkFunc(func(e Event) {
		if e.Kind == RunFinished {
			cancel()
		}
	})
	partial, err := RunExperiments(ctx, exps, spec)
	if err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	if len(partial.Runs) != 1 {
		t.Fatalf("partial runs = %d, want 1", len(partial.Runs))
	}

	// Resume with the same spec: the finished cell must replay, the rest
	// must simulate.
	resumed, err := RunExperiments(context.Background(), exps, cacheSpec(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Runs) != 3 {
		t.Fatalf("resumed runs = %d", len(resumed.Runs))
	}
	if !resumed.Runs[0].Cached {
		t.Fatalf("first cell not replayed: %+v", resumed.Runs[0])
	}
	for i := 1; i < 3; i++ {
		if resumed.Runs[i].Cached {
			t.Fatalf("cell %d replayed but was never committed", i)
		}
	}
	if resumed.CacheHits != 1 || resumed.CacheMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", resumed.CacheHits, resumed.CacheMisses)
	}
	for i := range resumed.Runs {
		if resumed.Runs[i].CacheKey == "" {
			t.Fatalf("run %d has no cache key", i)
		}
	}

	normalizeReport(base)
	normalizeReport(resumed)
	a, b := reportJSON(t, base), reportJSON(t, resumed)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", a, b)
	}
}

// TestWarmRunSimulatesNothing pins the other acceptance criterion: a
// fully-warm second run performs zero simulations.
func TestWarmRunSimulatesNothing(t *testing.T) {
	exps := []experiments.Experiment{simExperiment("x"), simExperiment("y")}
	dir := t.TempDir()

	cold, err := RunExperiments(context.Background(), exps, cacheSpec(dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheMisses != 2 || cold.CacheHits != 0 {
		t.Fatalf("cold hits/misses = %d/%d", cold.CacheHits, cold.CacheMisses)
	}

	var buf bytes.Buffer
	spec := cacheSpec(dir)
	spec.Sink = NewWriterSink(&buf)
	warm, err := RunExperiments(context.Background(), exps, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SimEvents != 0 {
		t.Fatalf("warm run simulated %d events", warm.SimEvents)
	}
	if warm.CacheHits != 2 || warm.CacheMisses != 0 {
		t.Fatalf("warm hits/misses = %d/%d", warm.CacheHits, warm.CacheMisses)
	}
	for i, r := range warm.Runs {
		if !r.Cached || r.Status != StatusOK || len(r.Tables) != 1 {
			t.Fatalf("warm run %d: %+v", i, r)
		}
		// Replay preserves the original record verbatim, timings included.
		if r.SimEvents != cold.Runs[i].SimEvents || r.WallSeconds != cold.Runs[i].WallSeconds {
			t.Fatalf("warm run %d rewrote the stored record: %+v vs %+v", i, r, cold.Runs[i])
		}
		if r.Tables[0].Rows[0][0] != cold.Runs[i].Tables[0].Rows[0][0] {
			t.Fatalf("warm run %d table differs", i)
		}
	}
	if !strings.Contains(buf.String(), "cached") {
		t.Fatalf("sink did not render the replay:\n%s", buf.String())
	}
}

// TestFailedRunsAreNotCommitted: only StatusOK cells enter the cache, so a
// failing experiment re-runs on every sweep instead of replaying its error.
func TestFailedRunsAreNotCommitted(t *testing.T) {
	exps := []experiments.Experiment{panicExperiment("boom")}
	dir := t.TempDir()
	for attempt := 0; attempt < 2; attempt++ {
		rep, err := RunExperiments(context.Background(), exps, cacheSpec(dir))
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Runs[0]
		if r.Cached || r.Status != StatusError {
			t.Fatalf("attempt %d: %+v", attempt, r)
		}
		if rep.CacheMisses != 1 {
			t.Fatalf("attempt %d: misses = %d", attempt, rep.CacheMisses)
		}
	}
}

// TestClaimFailureFailsCell: a cache that cannot claim a cell fails the
// cell with the cache's error — retryable, never committed, never reported
// ok — instead of simulating it outside the cache.
func TestClaimFailureFailsCell(t *testing.T) {
	exp := simExperiment("unclaimable")
	dir := t.TempDir()
	spec := cacheSpec(dir)
	spec.Retries = 1
	key := cellKey(spec, exp)
	if key == "" {
		t.Fatal("no cache key")
	}
	// The cell's shard directory is a regular file: the claim's mkdir fails.
	if err := os.WriteFile(filepath.Join(dir, key[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{exp}, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if r.Status != StatusError || !strings.Contains(r.Error, "cache: mkdir") || !strings.Contains(r.Error, "not a directory") {
		t.Fatalf("run = %+v, want a cache claim error", r)
	}
	if r.Cached || len(r.Tables) != 0 || r.SimEvents != 0 || r.CacheKey != key {
		t.Fatalf("unclaimed cell ran or replayed: %+v", r)
	}
	if r.Attempts != 2 || rep.Retries != 1 {
		t.Fatalf("attempts/retries = %d/%d, want 2/1 (claim errors are retryable)", r.Attempts, rep.Retries)
	}
}

// TestCommitFailureFailsCell: a cell whose result the cache cannot commit
// fails with the cache's error — retryable, never reported ok — instead of
// passing once and silently recomputing on every later sweep.
func TestCommitFailureFailsCell(t *testing.T) {
	exp := simExperiment("uncommittable")
	dir := t.TempDir()
	spec := cacheSpec(dir)
	spec.Retries = 1
	key := cellKey(spec, exp)
	if key == "" {
		t.Fatal("no cache key")
	}
	// A non-empty directory squats on the cell's final address: the claim
	// succeeds, but the commit's rename of the staged cell fails.
	if err := os.MkdirAll(filepath.Join(dir, key[:2], key, "junk"), 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{exp}, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if r.Status != StatusError || !strings.Contains(r.Error, "cache: committing "+key) {
		t.Fatalf("run = %+v, want a cache commit error", r)
	}
	if r.Cached || len(r.Tables) != 0 || r.CacheKey != key {
		t.Fatalf("uncommitted cell reported a result: %+v", r)
	}
	if r.Attempts != 2 || rep.Retries != 1 {
		t.Fatalf("attempts/retries = %d/%d, want 2/1 (commit errors are retryable)", r.Attempts, rep.Retries)
	}
}

// TestConcurrentWorkersShareCache: two sweeps over the same cells and cache
// directory compute each cell exactly once between them — the claim loser
// waits for the winner's commit and replays it.
func TestConcurrentWorkersShareCache(t *testing.T) {
	exps := []experiments.Experiment{simExperiment("c1"), simExperiment("c2"), simExperiment("c3")}
	dir := t.TempDir()

	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reps[w], errs[w] = RunExperiments(context.Background(), exps, cacheSpec(dir))
		}(w)
	}
	wg.Wait()

	misses := 0
	for w, rep := range reps {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		misses += rep.CacheMisses
		for i, r := range rep.Runs {
			if r.Status != StatusOK || len(r.Tables) != 1 {
				t.Fatalf("worker %d run %d: %+v", w, i, r)
			}
		}
	}
	if misses != len(exps) {
		t.Fatalf("cells computed %d times across workers, want %d", misses, len(exps))
	}
	for i := range exps {
		a, b := reps[0].Runs[i], reps[1].Runs[i]
		if a.Tables[0].Rows[0][0] != b.Tables[0].Rows[0][0] {
			t.Fatalf("workers disagree on cell %d", i)
		}
	}
}

// TestCachedSeriesRelocate: with metrics and a cache both enabled, series
// files stage under the claim and are published under the committed cell's
// series/ tree — and the recorded paths survive a warm replay.
func TestCachedSeriesRelocate(t *testing.T) {
	writeSeries := experiments.Experiment{
		ID:    "met",
		Title: "writes one series file",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			cfg, ok := experiments.MetricsFrom(ctx)
			if !ok {
				return nil, fmt.Errorf("metrics config missing from context")
			}
			dir := filepath.Join(cfg.Dir, "met")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(dir, "cell0.jsonl"), []byte("{}\n"), 0o644); err != nil {
				return nil, err
			}
			tab := &experiments.Table{ID: "met", Title: "t", Header: []string{"ok"}}
			tab.AddRow("1")
			return []*experiments.Table{tab}, nil
		},
	}
	cacheDir := t.TempDir()
	spec := cacheSpec(cacheDir)
	spec.MetricsDir = t.TempDir() // location superseded by the cache tree

	cold, err := RunExperiments(context.Background(), []experiments.Experiment{writeSeries}, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := cold.Runs[0]
	if r.Status != StatusOK || len(r.SeriesPaths) != 1 {
		t.Fatalf("cold run: %+v", r)
	}
	if !strings.HasPrefix(r.SeriesPaths[0], cacheDir) {
		t.Fatalf("series path %q not under the cache", r.SeriesPaths[0])
	}
	if _, err := os.Stat(r.SeriesPaths[0]); err != nil {
		t.Fatalf("recorded series path missing: %v", err)
	}

	warm, err := RunExperiments(context.Background(), []experiments.Experiment{writeSeries}, spec)
	if err != nil {
		t.Fatal(err)
	}
	w := warm.Runs[0]
	if !w.Cached || len(w.SeriesPaths) != 1 || w.SeriesPaths[0] != r.SeriesPaths[0] {
		t.Fatalf("warm run series: %+v (cold %+v)", w.SeriesPaths, r.SeriesPaths)
	}
}

// TestCorruptRecordRecomputes: a committed cell whose record no longer
// parses is evicted and recomputed instead of failing the sweep.
func TestCorruptRecordRecomputes(t *testing.T) {
	exps := []experiments.Experiment{simExperiment("z")}
	dir := t.TempDir()
	rep, err := RunExperiments(context.Background(), exps, cacheSpec(dir))
	if err != nil {
		t.Fatal(err)
	}
	key := rep.Runs[0].CacheKey
	record := filepath.Join(dir, key[:2], key, "record.json")
	if err := os.WriteFile(record, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = RunExperiments(context.Background(), exps, cacheSpec(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Cached || rep.Runs[0].Status != StatusOK {
		t.Fatalf("corrupt cell not recomputed: %+v", rep.Runs[0])
	}
}

// TestRunResolvesRegistryAndScenario: the spec-driven Run entry point
// expands experiment IDs (unknown ones become error records) and appends
// the inline scenario cell.
func TestRunResolvesRegistryAndScenario(t *testing.T) {
	rep, err := Run(context.Background(), RunSpec{Experiments: []string{"fig5", "nope"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if rep.Runs[0].Status != StatusOK {
		t.Fatalf("fig5: %+v", rep.Runs[0])
	}
	if rep.Runs[1].Status != StatusError || !strings.Contains(rep.Runs[1].Error, "unknown experiment") {
		t.Fatalf("nope: %+v", rep.Runs[1])
	}
}
