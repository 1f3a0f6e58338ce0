package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pert/internal/scenario"
)

// The serial↔sharded differential suite. Every registered experiment falls in
// one of two contract classes:
//
//   - byteIdentical: the experiment never engages the sharded engine (analytic
//     tables, and runs whose spec never sets shards). A -shards request must
//     be a perfect no-op: the tables match the serial run byte for byte, notes
//     included.
//   - deterministicPerN: the experiment runs on the sharded engine when
//     -shards > 1. Results may legitimately differ from the serial run (domain
//     engines draw from per-shard RNG streams), but at a fixed shard count
//     repeated runs must produce identical tables — rows, notes, and per-shard
//     event counts. Dumbbell tables whose every cell is barred from the cut
//     (custom controllers) sit here too: their rows do not move, but the table
//     gains the note saying what barred them.
//
// A third guarantee holds for both classes: -shards 1 is the serial engine
// (sharding engages only above one shard), so a shards=1 run must match the
// default run byte for byte. ext-parkinglot-xl is the one exception — its
// default is shards=8, so shards=1 is a different (serial) run.
//
// The fast subset below runs on every `go test`; `make shard-diff` (and the CI
// shard-smoke job) sets PERT_SHARDDIFF=full to sweep all experiments at
// shards ∈ {2, 4} with three repetitions each.
type shardDiffClass int

const (
	byteIdentical shardDiffClass = iota
	deterministicPerN
)

// shardDiffExpectations must cover every registry ID — the exhaustiveness
// test below fails when an experiment is added without classifying it.
var shardDiffExpectations = map[string]shardDiffClass{
	"section2":          byteIdentical, // Section 2 traces; spec never sets shards
	"fig5":              byteIdentical, // analytic response curve
	"fig6":              deterministicPerN,
	"fig7":              deterministicPerN,
	"fig8":              deterministicPerN,
	"fig9":              deterministicPerN, // web traffic crosses the cut
	"fig11":             byteIdentical,     // spec never sets shards
	"fig12":             byteIdentical,     // spec never sets shards
	"fig13":             byteIdentical,     // fluid model, no packet engine
	"fig14":             deterministicPerN, // PERT-PI + router PI sharded
	"ext-aqm":           deterministicPerN, // RED/PI/REM/AVQ marking RNG rebound per domain
	"ext-coexist":       byteIdentical,     // spec never sets shards
	"ext-delaycc":       deterministicPerN, // every cell barred by a custom controller: rows unchanged, note added
	"ext-fct":           byteIdentical,     // spec never sets shards
	"ext-flap":          deterministicPerN, // capacity changes + flaps on the boundary link
	"ext-highspeed":     deterministicPerN, // every cell barred by a custom controller: rows unchanged, note added
	"ext-hybrid":        byteIdentical,     // fluid substrate is serial-only; spec never sets shards
	"ext-jitter":        deterministicPerN, // registered-scheme rows shard; custom rows serial
	"ext-lossy":         deterministicPerN, // wire-loss impairment on the boundary link
	"ext-parkinglot-xl": deterministicPerN, // scenario path, shards by default
	"ext-replicated":    deterministicPerN,
	"ext-stability":     byteIdentical, // certified boundaries, no packet engine
	"ext-validation":    byteIdentical, // spec never sets shards
	"table1":            deterministicPerN,
}

// shardDiffQuickSet is the representative subset the default test run covers:
// one member per newly shard-safe feature (router AQMs, web traffic, link
// schedules, impairments, the scenario path) plus one member of the
// byte-identical class from each serial-fallback reason.
var shardDiffQuickSet = map[string]bool{
	"table1":            true, // web sessions + heterogeneous RTTs across the cut
	"ext-flap":          true, // boundary-link capacity halving and up/down flaps
	"ext-parkinglot-xl": true, // scenario runner, 8 bottlenecks, AQM option
	"fig5":              true, // analytic byte-identity representative
	"ext-delaycc":       true, // custom-CC representative: barred from the cut, and noted
}

func shardDiffFull() bool { return os.Getenv("PERT_SHARDDIFF") == "full" }

// runForDiff executes one experiment and fingerprints its complete output:
// every table's identity, header, rows, and notes.
func runForDiff(t *testing.T, id string, shards int) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	ctx := context.Background()
	if shards > 0 {
		ctx = WithShards(ctx, shards)
	}
	tabs, err := e.Run(ctx, Quick)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", id, shards, err)
	}
	type tp struct {
		ID     string
		Header []string
		Rows   [][]string
		Notes  []string
	}
	out := make([]tp, len(tabs))
	for i, tab := range tabs {
		out[i] = tp{tab.ID, tab.Header, tab.Rows, tab.Notes}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardDiffExpectationsExhaustive pins the expectation table to the
// registry: every experiment is classified, no stale entries linger, and the
// quick subset names real experiments.
func TestShardDiffExpectationsExhaustive(t *testing.T) {
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
		if _, ok := shardDiffExpectations[id]; !ok {
			t.Errorf("experiment %q has no shard-diff expectation; classify it", id)
		}
	}
	for id := range shardDiffExpectations {
		if !ids[id] {
			t.Errorf("shard-diff expectation for unknown experiment %q", id)
		}
	}
	for id := range shardDiffQuickSet {
		if !ids[id] {
			t.Errorf("quick subset names unknown experiment %q", id)
		}
	}
}

// TestShardDiff is the differential harness. For each covered experiment it
// runs the serial baseline, checks the shards=1 no-op, and then checks the
// class contract at shards=2 (and shards=4 with 3 reps under PERT_SHARDDIFF=full).
func TestShardDiff(t *testing.T) {
	full := shardDiffFull()
	shardCounts := []int{2}
	reps := 2
	if full {
		shardCounts = []int{2, 4}
		reps = 3
	}
	for _, id := range IDs() {
		if !full && !shardDiffQuickSet[id] {
			continue
		}
		id := id
		class := shardDiffExpectations[id]
		t.Run(id, func(t *testing.T) {
			serial := runForDiff(t, id, 0)
			// shards=1 is the serial engine; only ext-parkinglot-xl defaults
			// to a different shard count.
			if id != "ext-parkinglot-xl" {
				if one := runForDiff(t, id, 1); one != serial {
					t.Errorf("shards=1 diverged from the serial run\nserial: %s\nshards=1: %s", serial, one)
				}
			}
			for _, n := range shardCounts {
				first := runForDiff(t, id, n)
				if class == byteIdentical && first != serial {
					t.Errorf("shards=%d diverged from serial but the experiment never shards\nserial: %s\nsharded: %s", n, serial, first)
				}
				for rep := 1; rep < reps; rep++ {
					if got := runForDiff(t, id, n); got != first {
						t.Errorf("shards=%d rep %d diverged — sharded run is not deterministic\nfirst: %s\nthis:  %s", n, rep, first, got)
					}
				}
			}
		})
	}
}

// TestShardDiffExampleScenarios runs every example scenario document through
// the serial runner and the sharded runner at shards ∈ {2, 4}: the documents
// must validate and complete at any shard count, shards=1 must match the
// serial table byte for byte, and fixed-N reruns must be identical. Documents
// with a fluid background group are the exception above one shard: the hybrid
// substrate is serial-only, so the runner must reject them with the
// validation error rather than run or panic.
func TestShardDiffExampleScenarios(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	reps := 2
	if shardDiffFull() {
		reps = 3
	}
	for _, path := range docs {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			load := func() scenario.Spec {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				spec, err := scenario.Load(f)
				if err != nil {
					t.Fatal(err)
				}
				return spec
			}
			fluid := false
			for _, g := range load().Groups {
				if g.IsFluid() {
					fluid = true
				}
			}
			run := func(shards int) string {
				spec := load()
				spec.Shards = shards
				tab, err := RunScenario(spec)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				b, _ := json.Marshal(struct {
					H []string
					R [][]string
				}{tab.Header, tab.Rows})
				return string(b)
			}
			serial := run(0)
			if one := run(1); one != serial {
				t.Errorf("shards=1 diverged from serial\nserial: %s\nshards=1: %s", serial, one)
			}
			for _, n := range []int{2, 4} {
				if fluid {
					spec := load()
					spec.Shards = n
					if _, err := RunScenario(spec); err == nil || !strings.Contains(err.Error(), "serial-only") {
						t.Errorf("shards=%d: fluid scenario must be rejected as serial-only, got %v", n, err)
					}
					continue
				}
				first := run(n)
				for rep := 1; rep < reps; rep++ {
					if got := run(n); got != first {
						t.Errorf("shards=%d rep %d diverged\nfirst: %s\nthis:  %s", n, rep, first, got)
					}
				}
			}
		})
	}
}
