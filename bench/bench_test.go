package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"pert/internal/harness"
)

func TestMain(m *testing.M) {
	harness.MaybeWorker() // sweep_cells re-execs the test binary for its isolated pass
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration checks BENCHMARK.json against the contract's limits and
// against the program's own workload list.
func TestDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, contract allows 1 to 32", n)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want this directory alone", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program, contract allows 2 to 8", n, len(workloads))
	}
	names := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	for i, w := range doc.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		unique("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range doc.PerLayer {
		unique("metric", m.Name)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload, cut to one simulated
// second, through both kinds of run. runWorkload itself fails unless the
// metric names measured are exactly the ones declared; the determinism
// guard, the pass checks and the drivers' self-checks must all hold, and the
// spans written out must form a well-formed tree.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d, err := loadDeclaration("..")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	where := dirs{root: root, out: t.TempDir(), tmp: t.TempDir()}
	drivers, err := runDrivers(context.Background(), 1)
	if err != nil {
		t.Error(err)
	}
	small := plan{minReps: 2, setups: 1, drivers: drivers}
	for _, w := range workloads {
		w.simSeconds = 1
		specs, _, err := loadCells(w.cells(1, w.simSeconds))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := range specs {
			if err := specs[i].Validate(); err != nil {
				t.Errorf("%s cell %d: %v", w.name, i, err)
			}
		}
		for trace := 0; trace <= 1; trace++ {
			res, err := runWorkload(context.Background(), d, w, 1, small, trace, where)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d: %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
		}
		raw, err := os.ReadFile(filepath.Join(where.out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Spans) == 0 {
			t.Errorf("%s: no spans written", w.name)
		}
		if err := fillSelf(doc.Spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestFillSelfRejectsBadTrees(t *testing.T) {
	good := []span{{ID: 0, Parent: -1, Start: 0, End: 10}, {ID: 1, Parent: 0, Start: 2, End: 6}}
	if err := fillSelf(good); err != nil || good[0].Self != 6 || good[1].Self != 4 {
		t.Errorf("good tree: err=%v self=%d,%d", err, good[0].Self, good[1].Self)
	}
	outside := []span{{ID: 0, Parent: -1, Start: 0, End: 10}, {ID: 1, Parent: 0, Start: 8, End: 12}}
	if fillSelf(outside) == nil {
		t.Error("child outside its parent was accepted")
	}
	overlap := []span{{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 0, End: 8}, {ID: 2, Parent: 0, Start: 2, End: 10}}
	if fillSelf(overlap) == nil {
		t.Error("negative self time was accepted")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "wall_s", Better: "lower", Bound: 0.05}
	at := func(vs ...float64) sample { return medianOf(vs) }
	for _, tc := range []struct {
		name     string
		old, new sample
		want     string
	}{
		{"same", at(1, 1.01, 0.99, 1, 1), at(1, 1.01, 0.99, 1, 1), "ok"},
		{"slower beyond the bound", at(1, 1.01, 0.99, 1, 1), at(1.1, 1.11, 1.09, 1.1, 1.1), "worse"},
		{"faster", at(1, 1.01, 0.99, 1, 1), at(0.8, 0.81, 0.79, 0.8, 0.8), "ok"},
		{"noisy and overlapping", at(1, 1.2, 0.8, 1.1, 0.9), at(1.08, 1.2, 0.9, 1.1, 1), "unresolved"},
		{"noisy but every run slower", at(1, 1.2, 0.8, 1.1, 0.9), at(2, 2.4, 1.6, 2.2, 1.8), "worse"},
	} {
		if got := verdict(lower, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: 0.05}
	if got := verdict(higher, at(10, 10, 10, 10), at(9, 9, 9, 9)); got != "worse" {
		t.Errorf("higher-is-better drop: verdict %q, want worse", got)
	}
}
