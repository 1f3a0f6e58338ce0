package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pert/internal/cache"
	"pert/internal/experiments"
	"pert/internal/sim"
)

// TestMain makes the test binary triple-duty: a normal test runner, an
// isolated-cell worker (MaybeWorker, exactly like the real binaries), and —
// with PERT_TEST_MODE=sweep — a standalone sweep process the chaos tests can
// SIGKILL at random points.
func TestMain(m *testing.M) {
	workerResolveHook = chaosResolve
	retryBackoff = time.Millisecond // retry tests need no real backoff
	MaybeWorker()
	if os.Getenv("PERT_TEST_MODE") == "sweep" {
		os.Exit(chaosSweepMain())
	}
	os.Exit(m.Run())
}

// chaosCells is the deterministic three-cell sweep the chaos suite runs: an
// LCG stepped on a private engine with small sleeps, so every cell takes
// tens of milliseconds (a wide window for the killer) and produces
// byte-identical tables on every execution in any process.
func chaosCells() []experiments.Experiment {
	return []experiments.Experiment{
		chaosCell("chaos-a", 17),
		chaosCell("chaos-b", 23),
		chaosCell("chaos-c", 13),
	}
}

func chaosCell(id string, iters int) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "chaos harness cell",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			maybeCrashCell(id)
			// Each LCG step is one event on a private engine, so a sweep
			// of these cells has simulated events to account for.
			eng := sim.NewEngine(0)
			v := uint64(len(id))
			for i := 0; i < iters; i++ {
				eng.Do(eng.Now(), func() { v = v*6364136223846793005 + 1442695040888963407 })
				eng.Run(eng.Now())
				time.Sleep(2 * time.Millisecond)
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			tab := &experiments.Table{ID: id, Title: "chaos", Header: []string{"iters", "value"}}
			tab.AddRow(fmt.Sprint(iters), fmt.Sprint(v))
			return []*experiments.Table{tab}, nil
		},
	}
}

// chaosResolve lets re-exec'd workers find the chaos cells, which live in
// this test binary rather than the experiments registry.
func chaosResolve(id string) (experiments.Experiment, bool) {
	switch id {
	case "chaos-a":
		return chaosCell("chaos-a", 17), true
	case "chaos-b":
		return chaosCell("chaos-b", 23), true
	case "chaos-c":
		return chaosCell("chaos-c", 13), true
	case "chaos-hang":
		return experiments.Experiment{
			ID: "chaos-hang", Title: "ignores its context",
			Run: func(context.Context, experiments.Scale) ([]*experiments.Table, error) {
				time.Sleep(30 * time.Second) // deliberately uncancellable
				return nil, nil
			},
		}, true
	case "chaos-crash":
		return experiments.Experiment{
			ID: "chaos-crash", Title: "always dies",
			Run: func(context.Context, experiments.Scale) ([]*experiments.Table, error) {
				os.Exit(cache.CrashExitCode)
				return nil, nil
			},
		}, true
	}
	return experiments.Experiment{}, false
}

// maybeCrashCell implements PERT_TEST_CRASH_CELL="<id>:<marker>": the first
// process to run cell <id> writes the marker and dies abruptly; later
// attempts (the retry) run normally. Worker processes inherit the variable.
func maybeCrashCell(id string) {
	v := os.Getenv("PERT_TEST_CRASH_CELL")
	if v == "" {
		return
	}
	cellID, marker, ok := strings.Cut(v, ":")
	if !ok || cellID != id {
		return
	}
	if _, err := os.Stat(marker); err == nil {
		return
	}
	os.WriteFile(marker, []byte(id), 0o644)
	fmt.Fprintf(os.Stderr, "chaos: injected cell crash in %s\n", id)
	os.Exit(cache.CrashExitCode)
}

// chaosSweepMain is the re-exec'd sweep process: it runs the chaos cells
// against the cache named by PERT_TEST_CACHE and writes the report
// atomically to PERT_TEST_REPORT, so a SIGKILL can never leave a truncated
// report for the test to misread.
func chaosSweepMain() int {
	spec := RunSpec{
		Scale:   string(experiments.Quick),
		Cache:   CachePolicy{Dir: os.Getenv("PERT_TEST_CACHE")},
		Isolate: os.Getenv("PERT_TEST_ISOLATE") == "1",
	}
	if n, _ := strconv.Atoi(os.Getenv("PERT_TEST_RETRIES")); n > 0 {
		spec.Retries = n
	}
	rep, runErr := RunExperiments(context.Background(), chaosCells(), spec)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	path := os.Getenv("PERT_TEST_REPORT")
	if path == "" {
		return 2
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return 1
	}
	werr := rep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		return 1
	}
	if runErr != nil {
		return 1
	}
	return 0
}

// sweepCmd builds the re-exec'd sweep process command.
func sweepCmd(cacheDir, reportPath string, isolate bool, extraEnv ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	env := append(os.Environ(),
		"PERT_TEST_MODE=sweep",
		"PERT_TEST_CACHE="+cacheDir,
		"PERT_TEST_REPORT="+reportPath,
	)
	if isolate {
		env = append(env, "PERT_TEST_ISOLATE=1")
	}
	cmd.Env = append(env, extraEnv...)
	cmd.Stderr = os.Stderr
	return cmd
}

// countCommitted walks the cache directory counting committed cells.
func countCommitted(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == "record.json" {
			n++
		}
		return nil
	})
	return n
}

// ownerAlive reports whether s (a lockfile body or the PID suffix of a
// staging dir name) names a live process.
func ownerAlive(s string) bool {
	pid, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || pid <= 0 {
		return false
	}
	return syscall.Kill(pid, 0) == nil
}

// waitQuiesce waits until no LIVE process holds a claim or staging dir in
// the cache and the committed count is stable — orphaned isolated workers
// outlive a SIGKILLed parent by design (they commit their cell harmlessly),
// and the test must not count cells while one is still running. Dead
// owners' debris (stale locks, orphaned tmp dirs) is exactly what resume
// and fsck exist to clean up, so it does not count as busy.
func waitQuiesce(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	stable, last := 0, -1
	for time.Now().Before(deadline) {
		busy := 0
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return nil
			}
			if strings.HasSuffix(path, ".lock") {
				if blob, err := os.ReadFile(path); err == nil && ownerAlive(string(blob)) {
					busy++
				}
			}
			if d.IsDir() && filepath.Dir(path) == filepath.Join(dir, "tmp") {
				if dot := strings.LastIndexByte(d.Name(), '.'); dot >= 0 && ownerAlive(d.Name()[dot+1:]) {
					busy++
				}
			}
			return nil
		})
		n := countCommitted(t, dir)
		if busy == 0 && n == last {
			stable++
			if stable >= 3 {
				return
			}
		} else {
			stable = 0
		}
		last = n
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("cache never quiesced after kill")
}

// chaosBaseline runs one uninterrupted sweep in a subprocess and returns its
// normalized report bytes.
func chaosBaseline(t *testing.T) []byte {
	t.Helper()
	report := filepath.Join(t.TempDir(), "report.json")
	cmd := sweepCmd(t.TempDir(), report, false)
	if err := cmd.Run(); err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	return normalizedReportFile(t, report)
}

func normalizedReportFile(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report %s: %v", path, err)
	}
	normalizeReport(&rep)
	return reportJSON(t, &rep)
}

func readReportFile(t *testing.T, path string) *Report {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestChaosKillResumeLoop is the ISSUE's headline acceptance test: a sweep
// process is killed at 20 random points — SIGKILL at a random delay, or an
// injected crash at one of the cache protocol sites, alternating process
// isolation on and off — and every time, fsck finds no corrupt committed
// cell and a clean rerun converges to a report byte-identical to the
// uninterrupted baseline, replaying every committed cell instead of
// re-simulating it.
func TestChaosKillResumeLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos loop is slow; skipped with -short")
	}
	baseline := chaosBaseline(t)
	// Every site a healthy sweep actually reaches; the release site only
	// fires on failure paths and is exercised by the cache package's own
	// crash tests.
	sites := []string{cache.CrashSiteClaim, cache.CrashSiteStage,
		cache.CrashSiteCommitStage, cache.CrashSiteCommitRename}
	rng := rand.New(rand.NewSource(7))
	total := len(chaosCells())

	for i := 0; i < 20; i++ {
		i := i
		t.Run(fmt.Sprintf("iter%02d", i), func(t *testing.T) {
			cacheDir := t.TempDir()
			report := filepath.Join(t.TempDir(), "report.json")
			isolate := i%2 == 1

			// Interrupt the sweep: every third iteration dies via an
			// injected crash at a cache protocol site, the rest by SIGKILL
			// at a random point of the sweep's lifetime.
			if i%3 == 2 {
				site := sites[(i/3)%len(sites)]
				cmd := sweepCmd(cacheDir, report, isolate, cache.CrashEnv+"="+site)
				err := cmd.Run()
				if !isolate {
					// The sweep process itself dies at the injected site.
					if code := cmd.ProcessState.ExitCode(); err == nil || code != cache.CrashExitCode {
						t.Fatalf("crash at %s: exit=%d err=%v, want %d", site, code, err, cache.CrashExitCode)
					}
				}
				// With isolation, the workers die instead and the parent
				// finishes with crashed cells — either way the cache must be
				// repairable and the rerun must converge.
			} else {
				delay := time.Duration(5+rng.Intn(250)) * time.Millisecond
				cmd := sweepCmd(cacheDir, report, isolate)
				if err := cmd.Start(); err != nil {
					t.Fatal(err)
				}
				timer := time.AfterFunc(delay, func() { cmd.Process.Kill() })
				cmd.Wait()
				timer.Stop()
			}

			waitQuiesce(t, cacheDir)

			// No crash may ever leave a corrupt committed cell.
			store, err := cache.Open(cacheDir)
			if err != nil {
				t.Fatal(err)
			}
			fsck, err := store.Fsck(ValidateRecord)
			if err != nil {
				t.Fatal(err)
			}
			if fsck.Evicted != 0 {
				t.Fatalf("fsck evicted %d committed cells:\n%s",
					fsck.Evicted, strings.Join(fsck.Problems, "\n"))
			}
			committed := countCommitted(t, cacheDir)

			// A clean rerun must replay every committed cell, compute only
			// the rest, and match the uninterrupted baseline byte-for-byte.
			if err := sweepCmd(cacheDir, report, false).Run(); err != nil {
				t.Fatalf("resume sweep failed: %v", err)
			}
			rep := readReportFile(t, report)
			if rep.CacheHits != committed {
				t.Fatalf("resume replayed %d cells, %d were committed (re-simulated a warm cell)",
					rep.CacheHits, committed)
			}
			if rep.CacheHits+rep.CacheMisses != total {
				t.Fatalf("hits+misses = %d+%d, want %d", rep.CacheHits, rep.CacheMisses, total)
			}
			got := normalizedReportFile(t, report)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("resumed report differs from baseline:\n--- baseline\n%s\n--- resumed\n%s",
					baseline, got)
			}
		})
	}
}

// TestChaosCrashInjectedFsck is the single crash-injected fsck round CI's
// chaos-smoke job runs even under -short: die mid-commit, verify the debris
// (a stale claim and an orphaned staging dir, never a corrupt cell), repair
// with fsck, and converge on rerun.
func TestChaosCrashInjectedFsck(t *testing.T) {
	cacheDir := t.TempDir()
	report := filepath.Join(t.TempDir(), "report.json")
	cmd := sweepCmd(cacheDir, report, false, cache.CrashEnv+"="+cache.CrashSiteCommitStage)
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != cache.CrashExitCode {
		t.Fatalf("exit=%d err=%v, want %d", code, err, cache.CrashExitCode)
	}
	store, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	fsck, err := store.Fsck(ValidateRecord)
	if err != nil {
		t.Fatal(err)
	}
	if fsck.Evicted != 0 {
		t.Fatalf("corrupt committed cell after mid-commit crash:\n%s", strings.Join(fsck.Problems, "\n"))
	}
	if fsck.ClaimsBroken != 1 || fsck.TmpReaped != 1 {
		t.Fatalf("fsck = %s, want 1 claim broken and 1 staging dir reaped", fsck.Summary())
	}
	if err := sweepCmd(cacheDir, report, false).Run(); err != nil {
		t.Fatalf("resume after fsck failed: %v", err)
	}
	got := normalizedReportFile(t, report)
	if want := chaosBaseline(t); !bytes.Equal(got, want) {
		t.Fatalf("post-fsck report differs from baseline:\n--- baseline\n%s\n--- got\n%s", want, got)
	}
}

// TestIsolatedSweepMatchesInProcess pins the acceptance criterion that
// isolation changes mechanics only: the same sweep with -isolate on and off
// produces byte-identical normalized reports (and identical cache cells,
// since mechanics never join the cache key).
func TestIsolatedSweepMatchesInProcess(t *testing.T) {
	spec := RunSpec{Scale: string(experiments.Quick), Cache: CachePolicy{Dir: t.TempDir()}}
	inproc, err := RunExperiments(context.Background(), chaosCells(), spec)
	if err != nil {
		t.Fatal(err)
	}
	iso := RunSpec{Scale: string(experiments.Quick), Cache: CachePolicy{Dir: t.TempDir()}, Isolate: true}
	isolated, err := RunExperiments(context.Background(), chaosCells(), iso)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range isolated.Runs {
		if r.Status != StatusOK {
			t.Fatalf("isolated run %s: %+v", r.ID, r)
		}
		if r.Attempts != 1 {
			t.Fatalf("isolated run %s attempts = %d, want 1", r.ID, r.Attempts)
		}
	}
	// The sweep's event count is the sum of its runs', wherever they ran.
	if inproc.SimEvents == 0 || isolated.SimEvents != inproc.SimEvents {
		t.Fatalf("sweep sim_events: in-process %d, isolated %d; want equal and above 0",
			inproc.SimEvents, isolated.SimEvents)
	}
	normalizeReport(inproc)
	normalizeReport(isolated)
	a, b := reportJSON(t, inproc), reportJSON(t, isolated)
	if !bytes.Equal(a, b) {
		t.Fatalf("isolated sweep differs from in-process:\n--- in-process\n%s\n--- isolated\n%s", a, b)
	}
}

// TestCrashOnceCellRetriesToBitIdentical is the other acceptance criterion:
// a cell that crashes its worker exactly once completes via retry, records
// the attempt count, and the sweep's results are bit-identical to a no-fault
// run.
func TestCrashOnceCellRetriesToBitIdentical(t *testing.T) {
	clean := RunSpec{Scale: string(experiments.Quick), Cache: CachePolicy{Dir: t.TempDir()}}
	baseline, err := RunExperiments(context.Background(), chaosCells(), clean)
	if err != nil {
		t.Fatal(err)
	}

	marker := filepath.Join(t.TempDir(), "crashed-once")
	t.Setenv("PERT_TEST_CRASH_CELL", "chaos-b:"+marker)
	spec := RunSpec{
		Scale:   string(experiments.Quick),
		Cache:   CachePolicy{Dir: t.TempDir()},
		Isolate: true,
		Retries: 2,
	}
	rep, err := RunExperiments(context.Background(), chaosCells(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatal("injected crash never fired")
	}
	for _, r := range rep.Runs {
		if r.Status != StatusOK {
			t.Fatalf("run %s = %+v, want ok", r.ID, r)
		}
		want := 1
		if r.ID == "chaos-b" {
			want = 2
		}
		if r.Attempts != want {
			t.Fatalf("run %s attempts = %d, want %d", r.ID, r.Attempts, want)
		}
	}
	if rep.Retries != 1 {
		t.Fatalf("report retries = %d, want 1", rep.Retries)
	}
	normalizeReport(baseline)
	normalizeReport(rep)
	a, b := reportJSON(t, baseline), reportJSON(t, rep)
	if !bytes.Equal(a, b) {
		t.Fatalf("retried sweep differs from no-fault run:\n--- no-fault\n%s\n--- retried\n%s", a, b)
	}
}

// TestIsolationContainsWorkerCrash: a cell that always kills its process
// must cost exactly that cell, with the sweep carrying on.
func TestIsolationContainsWorkerCrash(t *testing.T) {
	crash, _ := chaosResolve("chaos-crash")
	exps := []experiments.Experiment{chaosCell("chaos-a", 17), crash, chaosCell("chaos-c", 13)}
	spec := RunSpec{Scale: string(experiments.Quick), Isolate: true}
	rep, err := RunExperiments(context.Background(), exps, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(rep.Runs))
	}
	if rep.Runs[1].Status != StatusCrashed {
		t.Fatalf("crashing cell status = %q, want %q (%+v)", rep.Runs[1].Status, StatusCrashed, rep.Runs[1])
	}
	if !strings.Contains(rep.Runs[1].Error, "died") {
		t.Fatalf("crash error not recorded: %q", rep.Runs[1].Error)
	}
	for _, i := range []int{0, 2} {
		if rep.Runs[i].Status != StatusOK {
			t.Fatalf("sweep did not survive the crash: run %d = %+v", i, rep.Runs[i])
		}
	}
}
