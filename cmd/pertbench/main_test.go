package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pert/internal/harness"
)

// TestMain mirrors the real binary: the test executable doubles as the
// worker the supervisor re-execs for -isolate sweeps.
func TestMain(m *testing.M) {
	harness.MaybeWorker()
	os.Exit(m.Run())
}

func TestListIDs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	ids := strings.Fields(out.String())
	if len(ids) < 15 {
		t.Fatalf("only %d experiments listed", len(ids))
	}
	for _, want := range []string{"section2", "fig13", "table1", "ext-aqm"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing %q in %v", want, ids)
		}
	}
}

func TestFig5Text(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig5"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "== fig5:") || !strings.Contains(s, "completed in") {
		t.Fatalf("output:\n%s", s)
	}
}

// TestFig13JSON: the -json report carries each run's tables in the stable
// table schema.
func TestFig13JSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig13", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var rep struct {
		Runs []struct {
			Tables []struct {
				ID   string     `json:"id"`
				Rows [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid report JSON: %v\n%s", err, out.String())
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	tables := rep.Runs[0].Tables
	if len(tables) != 2 { // fig13a + fig13bcd
		t.Fatalf("tables = %d", len(tables))
	}
	for _, v := range tables {
		if v.ID == "" || len(v.Rows) == 0 {
			t.Fatalf("empty table: %+v", v)
		}
	}
}

func TestFig5CSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig5", "-format", "csv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if first != "queueing_delay_ms,response_prob" {
		t.Fatalf("csv header = %q", first)
	}
}

// TestJSONReport exercises the acceptance scenario: a sweep where one
// experiment ID is bogus still runs the others, records the failure as an
// error entry, and exits nonzero with a valid report on stdout.
func TestJSONReport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-json", "-exp", "fig5,fig13,nope"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d (want 1), stderr: %s", code, errb.String())
	}
	var rep struct {
		SchemaVersion int     `json:"schema_version"`
		Version       string  `json:"version"`
		Scale         string  `json:"scale"`
		Workers       int     `json:"workers"`
		WallSeconds   float64 `json:"wall_seconds"`
		SimEvents     uint64  `json:"sim_events"`
		Runs          []struct {
			ID          string  `json:"id"`
			WallSeconds float64 `json:"wall_seconds"`
			SimEvents   uint64  `json:"sim_events"`
			Error       string  `json:"error"`
			Tables      []struct {
				ID      string     `json:"id"`
				Columns []string   `json:"columns"`
				Rows    [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("invalid report JSON: %v\n%s", err, out.String())
	}
	if rep.SchemaVersion != 1 || rep.Scale != "quick" || rep.Workers < 1 || rep.Version == "" {
		t.Fatalf("report metadata: %+v", rep)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	byID := map[string]int{}
	for i, r := range rep.Runs {
		byID[r.ID] = i
	}
	fail := rep.Runs[byID["nope"]]
	if fail.Error == "" || len(fail.Tables) != 0 {
		t.Fatalf("failing run: %+v", fail)
	}
	// fig5 is analytic: wall time is recorded but no sim events accrue.
	fig5 := rep.Runs[byID["fig5"]]
	if fig5.Error != "" || len(fig5.Tables) != 1 || fig5.WallSeconds <= 0 {
		t.Fatalf("fig5 run: %+v", fig5)
	}
	if len(fig5.Tables[0].Rows) == 0 || len(fig5.Tables[0].Columns) == 0 {
		t.Fatalf("fig5 table empty: %+v", fig5.Tables[0])
	}
	fig13 := rep.Runs[byID["fig13"]]
	if fig13.Error != "" || len(fig13.Tables) != 2 {
		t.Fatalf("fig13 run: %+v", fig13)
	}
}

func TestProgressLines(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig13", "-progress"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := errb.String()
	if !strings.Contains(s, "fig13: started") || !strings.Contains(s, "fig13: done in") {
		t.Fatalf("progress lines:\n%s", s)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	if code := run(ctx, []string{"-exp", "fig5"}, &out, &errb); code != 1 {
		t.Fatalf("cancelled exit = %d", code)
	}
}

func TestErrors(t *testing.T) {
	var out, errb bytes.Buffer
	ctx := context.Background()
	if code := run(ctx, []string{"-exp", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown experiment exit = %d", code)
	}
	if code := run(ctx, []string{"-scale", "huge"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scale exit = %d", code)
	}
	for _, format := range []string{"xml", "json"} {
		if code := run(ctx, []string{"-exp", "fig5", "-format", format}, &out, &errb); code != 2 {
			t.Fatalf("-format %s exit = %d", format, code)
		}
	}
	if code := run(ctx, []string{"-bogusflag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
}

// TestCacheWarmSweep runs a tiny sweep twice into one cache directory: the
// second run must replay every cell without simulating and report the same
// tables.
func TestCacheWarmSweep(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-json", "-exp", "fig5", "-cache-dir", dir}

	var out1, errb bytes.Buffer
	if code := run(context.Background(), args, &out1, &errb); code != 0 {
		t.Fatalf("cold exit %d: %s", code, errb.String())
	}
	var out2 bytes.Buffer
	errb.Reset()
	if code := run(context.Background(), args, &out2, &errb); code != 0 {
		t.Fatalf("warm exit %d: %s", code, errb.String())
	}

	type report struct {
		SimEvents   uint64 `json:"sim_events"`
		CacheHits   int    `json:"cache_hits"`
		CacheMisses int    `json:"cache_misses"`
		CacheDir    string `json:"cache_dir"`
		Runs        []struct {
			Cached   bool   `json:"cached"`
			CacheKey string `json:"cache_key"`
			Tables   []struct {
				Rows [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"runs"`
	}
	var cold, warm report
	if err := json.Unmarshal(out1.Bytes(), &cold); err != nil {
		t.Fatalf("cold report: %v", err)
	}
	if err := json.Unmarshal(out2.Bytes(), &warm); err != nil {
		t.Fatalf("warm report: %v", err)
	}
	if cold.CacheMisses != 1 || cold.Runs[0].Cached {
		t.Fatalf("cold run: %+v", cold)
	}
	if warm.CacheHits != 1 || warm.SimEvents != 0 || !warm.Runs[0].Cached {
		t.Fatalf("warm run: %+v", warm)
	}
	if warm.Runs[0].CacheKey != cold.Runs[0].CacheKey || warm.CacheDir != dir {
		t.Fatalf("cache metadata: cold %+v warm %+v", cold, warm)
	}
	if len(warm.Runs[0].Tables) != 1 ||
		warm.Runs[0].Tables[0].Rows[0][0] != cold.Runs[0].Tables[0].Rows[0][0] {
		t.Fatal("warm tables differ from cold tables")
	}
}

// TestIsolatedSweep runs a cell in a re-exec'd worker process and then
// replays it from a non-isolated warm run: same cache key, same tables —
// process isolation must not perturb cell identity.
func TestIsolatedSweep(t *testing.T) {
	dir := t.TempDir()

	var cold, warm bytes.Buffer
	var errb bytes.Buffer
	if code := run(context.Background(), []string{"-json", "-exp", "fig5", "-cache-dir", dir, "-isolate"}, &cold, &errb); code != 0 {
		t.Fatalf("isolated exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := run(context.Background(), []string{"-json", "-exp", "fig5", "-cache-dir", dir}, &warm, &errb); code != 0 {
		t.Fatalf("warm exit %d: %s", code, errb.String())
	}

	type report struct {
		CacheHits   int `json:"cache_hits"`
		CacheMisses int `json:"cache_misses"`
		Runs        []struct {
			Status   string `json:"status"`
			Error    string `json:"error"`
			Cached   bool   `json:"cached"`
			CacheKey string `json:"cache_key"`
			Tables   []struct {
				Rows [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"runs"`
	}
	var c, w report
	if err := json.Unmarshal(cold.Bytes(), &c); err != nil {
		t.Fatalf("cold report: %v\n%s", err, cold.String())
	}
	if err := json.Unmarshal(warm.Bytes(), &w); err != nil {
		t.Fatalf("warm report: %v", err)
	}
	if c.CacheMisses != 1 || c.Runs[0].Status != "ok" || c.Runs[0].Error != "" {
		t.Fatalf("isolated cold run: %+v", c)
	}
	if w.CacheHits != 1 || !w.Runs[0].Cached {
		t.Fatalf("warm run after isolated commit: %+v", w)
	}
	if w.Runs[0].CacheKey != c.Runs[0].CacheKey {
		t.Fatalf("isolation changed the cache key: %s vs %s", c.Runs[0].CacheKey, w.Runs[0].CacheKey)
	}
	if len(c.Runs[0].Tables) != 1 ||
		c.Runs[0].Tables[0].Rows[0][0] != w.Runs[0].Tables[0].Rows[0][0] {
		t.Fatal("isolated tables differ from replayed tables")
	}
}

func TestCacheFsck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-cache-fsck"}, &out, &errb); code != 2 {
		t.Fatalf("fsck without -cache-dir exit = %d", code)
	}
	if !strings.Contains(errb.String(), "-cache-dir") {
		t.Fatalf("stderr: %s", errb.String())
	}

	dir := t.TempDir()
	out.Reset()
	errb.Reset()
	if code := run(context.Background(), []string{"-exp", "fig5", "-json", "-cache-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("seed sweep exit %d: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(context.Background(), []string{"-cache-fsck", "-cache-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("fsck exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "1 cells") {
		t.Fatalf("fsck summary: %q", out.String())
	}
}
