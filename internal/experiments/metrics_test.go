package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pert/internal/netem"
	"pert/internal/obs"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/topo"
)

// metricsTestSpec is a small PERT dumbbell that saturates its bottleneck in a
// couple of simulated seconds — big enough for every instrument to move,
// small enough to run many times per test.
func metricsTestSpec() scenario.Spec {
	s := cellSpec(7, 5e6, 4, 0, 0, 500*sim.Millisecond)
	s.Topology.RTTs = []sim.Duration{40 * sim.Millisecond}
	s.Duration, s.MeasureFrom, s.MeasureUntil = 4*sim.Second, sim.Second, 4*sim.Second
	return s
}

// TestMetricsMetamorphic pins rule 2 of the observability layer: enabling
// metrics must not change the simulation. The same spec runs with and without
// a metrics registry, with a packet tracer attached both times; the measured
// result rows and the full packet traces must be bit-identical.
func TestMetricsMetamorphic(t *testing.T) {
	run := func(withMetrics bool) (DumbbellResult, string, string) {
		var trace bytes.Buffer
		at := Attachments{Instrument: func(d *topo.Dumbbell) {
			netem.NewTracer(&trace).Attach(d.Forward)
		}}
		var series bytes.Buffer
		if withMetrics {
			at.Metrics = &MetricsSpec{Sink: obs.NewJSONLWriter(&series)}
		}
		res := RunDumbbell(PERT.on(metricsTestSpec()), at)
		return res, trace.String(), series.String()
	}

	base, baseTrace, _ := run(false)
	withM, withTrace, series := run(true)

	if base != withM {
		t.Errorf("metrics changed the measured result:\n  off: %+v\n  on:  %+v", base, withM)
	}
	if baseTrace != withTrace {
		t.Errorf("metrics changed the packet trace (lengths %d vs %d)", len(baseTrace), len(withTrace))
	}
	if series == "" {
		t.Fatalf("metrics-enabled run emitted no series")
	}

	// Determinism of the observation itself: a second metrics-enabled run
	// produces byte-identical series output.
	_, _, series2 := run(true)
	if series != series2 {
		t.Errorf("two identical metrics runs produced different series output")
	}
}

// TestMetricsSeriesRoundTrip checks the acceptance-level contract: a
// PERT run with metrics enabled emits queue, cwnd, and PERT-probability
// series that parse back cleanly.
func TestMetricsSeriesRoundTrip(t *testing.T) {
	spec := metricsTestSpec()
	var buf bytes.Buffer
	RunDumbbell(PERT.on(spec), Attachments{Metrics: &MetricsSpec{Sink: obs.NewJSONLWriter(&buf)}})

	pts, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("emitted series do not re-parse: %v", err)
	}
	count := map[string]int{}
	for _, p := range pts {
		count[p.Series]++
		if p.T < 0 || p.T > spec.Duration.Seconds() {
			t.Fatalf("sample outside the run window: %+v", p)
		}
	}
	for _, series := range []string{
		"queue.len", "queue.util", "queue.drops",
		"tcp/0.cwnd", "tcp/0.srtt", "tcp/0.pert.qdelay", "tcp/0.pert.prob",
		"tcp.rtt.count", "tcp.rtt.p50", "tcp.rtt.p99",
	} {
		if count[series] == 0 {
			t.Errorf("series %q missing from a PERT run (got: %v)", series, keys(count))
		}
	}
	// Sampling at the default 100 ms over 4 s gives 41 ticks; the queue
	// gauge fires on every one.
	if got := count["queue.len"]; got != 41 {
		t.Errorf("queue.len has %d samples, want 41 (100 ms over 4 s)", got)
	}
	// The PERT probability series only appears once the responder has RTT
	// samples, so it is allowed to start late but must be present and valid.
	for _, p := range pts {
		if p.Series == "tcp/0.pert.prob" && (p.Value < 0 || p.Value > 1) {
			t.Fatalf("PERT probability outside [0,1]: %+v", p)
		}
	}
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestAuditAbortIncludesFlightDump: when the invariant auditor aborts a
// metrics-enabled run, the panic's repro bundle must carry the flight
// recorder's trailing series window.
func TestAuditAbortIncludesFlightDump(t *testing.T) {
	at := Attachments{Metrics: &MetricsSpec{}} // no sink: flight recorder only
	// Corrupt the bottleneck's bookkeeping mid-run the way a lost-packet bug
	// would: an arrival that never reaches any other column. Pure accounting
	// corruption — packet flow is unaffected, only the audit sees it.
	at.Instrument = func(d *topo.Dumbbell) {
		d.Net.Engine().Do(1500*sim.Millisecond, func() {
			d.Forward.Stats.Arrivals++
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted run did not abort")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload is %T, want the bundle string", r)
		}
		for _, want := range []string{
			"invariant violated", "link accounting", "repro bundle", "seed=7",
			"flight recorder:", `flight "dumbbell scheme=PERT`, "points retained",
			"queue.len=",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("repro bundle missing %q:\n%s", want, msg)
			}
		}
	}()
	RunDumbbell(PERT.on(metricsTestSpec()), at)
}

// TestSweepMetricsParallelRegistries runs a metrics-enabled sweep on four
// workers. Registries are engine-local by design; under -race this proves no
// sampling state is shared across concurrently running cells, and afterwards
// every cell's file must exist and parse.
func TestSweepMetricsParallelRegistries(t *testing.T) {
	dir := t.TempDir()
	ctx := WithWorkers(context.Background(), 4)
	ctx = WithMetrics(ctx, MetricsConfig{Dir: dir})

	base := metricsTestSpec()
	base.Duration, base.MeasureFrom, base.MeasureUntil = 2*sim.Second, sim.Second, 2*sim.Second
	var points []sweepPoint
	for i := 0; i < 2; i++ {
		spec := base
		spec.Seed = int64(10 + i)
		points = append(points, sweepPoint{label: fmt.Sprintf("pt%d", i), spec: spec})
	}
	table, err := runSweep(ctx, "race-sweep", "metrics race check", "pt", points, []Scheme{PERT, SackDroptail})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(table.Rows))
	}

	paths := SeriesPaths(dir, "race-sweep")
	if len(paths) != 4 {
		t.Fatalf("got %d series files, want 4: %v", len(paths), paths)
	}
	for _, path := range paths {
		pts := readSeriesFile(t, path)
		if len(pts) == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	// The sweep rows must match a serial, metrics-free run bit-for-bit
	// (engine-local registries cannot leak across cells).
	serialTable, err := runSweep(context.Background(), "race-sweep-serial", "serial control", "pt", points, []Scheme{PERT, SackDroptail})
	if err != nil {
		t.Fatalf("serial control sweep: %v", err)
	}
	for i := range table.Rows {
		// Column 0 is the point label; compare the measured columns.
		got := strings.Join(table.Rows[i][1:], ",")
		want := strings.Join(serialTable.Rows[i][1:], ",")
		if got != want {
			t.Errorf("row %d differs between parallel+metrics and serial runs:\n  %s\n  %s", i, got, want)
		}
	}
}

// TestFlagsCoverEveryDumbbellTable: every dumbbell cell goes through one
// runner, so -metrics and -shards mean the same thing on a table that is not a
// four-panel sweep (table1) and on one whose cells are custom controllers
// (ext-delaycc) as they do on fig6: one parseable, non-empty series file per
// cell with rows identical to the run without, and under -shards a note
// saying what each cell did (a custom controller is barred from the cut, so
// its rows do not move either).
func TestFlagsCoverEveryDumbbellTable(t *testing.T) {
	for id, cells := range map[string]int{"table1": 4, "ext-delaycc": 5} {
		id, cells := id, cells
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, _ := ByID(id)
			run := func(ctx context.Context) *Table {
				tabs, err := e.Run(ctx, Quick)
				if err != nil {
					t.Fatal(err)
				}
				return tabs[0]
			}
			plain := run(context.Background())
			if len(plain.Rows) != cells {
				t.Fatalf("%d rows, want %d", len(plain.Rows), cells)
			}

			dir := t.TempDir()
			streamed := run(WithMetrics(context.Background(), MetricsConfig{Dir: dir}))
			if !reflect.DeepEqual(plain.Rows, streamed.Rows) {
				t.Errorf("metrics changed the rows:\n  off: %v\n  on:  %v", plain.Rows, streamed.Rows)
			}
			paths := SeriesPaths(dir, id)
			if len(paths) != cells {
				t.Fatalf("got %d series files, want one per cell (%d): %v", len(paths), cells, paths)
			}
			for _, path := range paths {
				if len(readSeriesFile(t, path)) == 0 {
					t.Errorf("%s is empty", path)
				}
			}

			if id != "ext-delaycc" {
				return
			}
			if len(plain.Notes) != 1 {
				t.Fatalf("no -shards request, yet a shard note: %v", plain.Notes)
			}
			sharded := run(WithShards(context.Background(), 2))
			if !reflect.DeepEqual(plain.Rows, sharded.Rows) {
				t.Errorf("-shards moved custom-controller rows:\n  off: %v\n  on:  %v", plain.Rows, sharded.Rows)
			}
			want := "requested shards=2: 0 of 5 cells ran on a dumbbell's 2 domains (see DESIGN.md §9); 5 ran on 1, barred by a custom controller"
			if len(sharded.Notes) != 2 || sharded.Notes[1] != want {
				t.Errorf("notes = %q\nwant the shard note %q", sharded.Notes, want)
			}
		})
	}
}

func readSeriesFile(t *testing.T, path string) []obs.Point {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	pts, err := obs.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	return pts
}

func TestCellFileName(t *testing.T) {
	for in, want := range map[string]string{
		"10Mbps_PERT":       "10Mbps_PERT",
		"Sack/RED-ECN":      "Sack-RED-ECN",
		"a b:c":             "a-b-c",
		"pt0_Sack/Droptail": "pt0_Sack-Droptail",
	} {
		if got := cellFileName(in); got != want {
			t.Errorf("cellFileName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesPathsEmpty(t *testing.T) {
	if got := SeriesPaths("", "fig2"); got != nil {
		t.Errorf("SeriesPaths with no dir = %v, want nil", got)
	}
	if got := SeriesPaths(t.TempDir(), "missing"); got != nil {
		t.Errorf("SeriesPaths for absent experiment = %v, want nil", got)
	}
}

func TestWithMetricsContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := MetricsFrom(ctx); ok {
		t.Fatal("bare context carries metrics")
	}
	if got := WithMetrics(ctx, MetricsConfig{}); got != ctx {
		t.Fatal("empty Dir should leave ctx unchanged")
	}
	ctx2 := WithMetrics(ctx, MetricsConfig{Dir: filepath.Join(t.TempDir(), "m")})
	cfg, ok := MetricsFrom(ctx2)
	if !ok || cfg.Dir == "" {
		t.Fatalf("metrics config lost: %+v ok=%v", cfg, ok)
	}
}
