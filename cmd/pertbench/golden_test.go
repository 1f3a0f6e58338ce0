package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pert/internal/experiments"
	"pert/internal/obs"
)

// TestGoldenQuickTables proves the simulator's pooled hot paths do not
// perturb results: the quick-scale tables of a representative experiment
// subset must be byte-identical to the committed results_quick.txt golden
// file. Event and packet pooling, the pending set of keys and slab slots
// (lazy deletion, coalesced timer carriers, link lanes), and the
// persistent-timer rewrite all claim to preserve the seeded RNG stream and
// (time, seq) event ordering exactly — a diff here means one of them
// changed behavior, and the optimization is a bug regardless of how much
// faster it is. The full sweep is checked the same way by `make results`.
func TestGoldenQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiment subset is slow; skipped with -short")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "results_quick.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	goldenStr := string(golden)

	// Fast experiments spanning the main simulator surfaces: fig13 (the
	// fluid model), ext-aqm (AQM disciplines at the bottleneck), ext-coexist
	// (multi-CC sharing), ext-delaycc (delay-based controllers), ext-fct (flow
	// completion times), fig11 (the parking lot, pinning a table produced
	// entirely through the scenario compiler). section2 is deliberately
	// absent: its six traces cost ~30 s of CPU, and `make results-check`
	// already covers it.
	for _, id := range []string{"fig13", "ext-aqm", "ext-coexist", "ext-delaycc", "ext-fct", "fig11"} {
		id := id
		t.Run(id, func(t *testing.T) {
			var out, errb bytes.Buffer
			// Default worker count: scenario scheduling is parallel but
			// each run is seeded independently, so tables are identical
			// for any worker count (the committed golden was produced
			// with the default).
			args := []string{"-exp", id}
			// ext-aqm additionally runs with metrics enabled: the golden
			// comparison below then doubles as the metamorphic check that
			// time-series collection does not perturb results, and the
			// emitted series must exist and parse.
			var metricsDir string
			if id == "ext-aqm" {
				metricsDir = t.TempDir()
				args = append(args, "-metrics", metricsDir)
			}
			if code := run(context.Background(), args, &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			if metricsDir != "" {
				paths := experiments.SeriesPaths(metricsDir, id)
				if len(paths) == 0 {
					t.Fatalf("metrics run wrote no series under %s", metricsDir)
				}
				for _, p := range paths {
					f, err := os.Open(p)
					if err != nil {
						t.Fatalf("%s: %v", p, err)
					}
					pts, err := obs.ReadJSONL(f)
					f.Close()
					if err != nil {
						t.Errorf("%s does not parse: %v", p, err)
					} else if len(pts) == 0 {
						t.Errorf("%s is empty", p)
					}
				}
			}
			s := out.String()
			// Drop the wall-clock trailer ("[id completed in ...]");
			// everything before it is deterministic table output.
			i := strings.LastIndex(s, "[")
			if i < 0 {
				t.Fatalf("no completion trailer in output:\n%s", s)
			}
			tables := s[:i]
			if tables == "" {
				t.Fatal("experiment rendered no tables")
			}
			if !strings.Contains(goldenStr, tables) {
				t.Errorf("%s tables diverged from the results_quick.txt golden file; "+
					"if this change intentionally alters results, regenerate with `make results`.\ngot:\n%s", id, tables)
			}
		})
	}
}
