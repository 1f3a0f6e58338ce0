package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pert/internal/experiments"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// simExperiment drives a real engine so runs accrue sim events and sim time.
func simExperiment(id string) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "synthetic simulation",
		Run: func(ctx context.Context, scale experiments.Scale) ([]*experiments.Table, error) {
			eng := sim.NewEngine(1)
			n := 0
			for i := 1; i <= 1000; i++ {
				eng.At(sim.Time(i)*sim.Millisecond, func() { n++ })
			}
			eng.Run(2 * sim.Second)
			tab := &experiments.Table{ID: id, Title: "synthetic", Header: []string{"events"}}
			tab.AddRow(fmt.Sprint(n))
			return []*experiments.Table{tab}, nil
		},
	}
}

func panicExperiment(id string) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "always panics",
		Run: func(context.Context, experiments.Scale) ([]*experiments.Table, error) {
			panic("deliberate failure")
		},
	}
}

func TestRunRecoversPanicAndContinues(t *testing.T) {
	exps := []experiments.Experiment{
		simExperiment("ok1"),
		panicExperiment("bad"),
		simExperiment("ok2"),
	}
	rep, err := RunExperiments(context.Background(), exps, RunSpec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	bad := rep.Runs[1]
	if !strings.Contains(bad.Error, "panicked: deliberate failure") {
		t.Fatalf("panic not recorded: %+v", bad)
	}
	if bad.Status != StatusError {
		t.Fatalf("panicked run status = %q", bad.Status)
	}
	if len(bad.Tables) != 0 || bad.Tables == nil {
		t.Fatalf("failed run tables: %+v", bad.Tables)
	}
	for _, i := range []int{0, 2} {
		r := rep.Runs[i]
		if r.Error != "" || len(r.Tables) != 1 || r.Status != StatusOK {
			t.Fatalf("run %d: %+v", i, r)
		}
		if r.SimEvents == 0 || r.SimSeconds <= 0 || r.WallSeconds <= 0 || r.EventsPerSecond <= 0 {
			t.Fatalf("run %d missing throughput metadata: %+v", i, r)
		}
	}
	if failed := rep.Failed(); len(failed) != 1 || failed[0].ID != "bad" {
		t.Fatalf("Failed() = %+v", failed)
	}
	if rep.SimEvents < rep.Runs[0].SimEvents+rep.Runs[2].SimEvents {
		t.Fatalf("sweep events %d < sum of runs", rep.SimEvents)
	}
}

func TestRunPanicInsideForEachWorker(t *testing.T) {
	// A panic deep inside a parallel sweep (e.g. an unknown scheme reaching
	// a scenario builder) must surface as this run's error, not kill the
	// process. RunDumbbell panics on a spec it cannot run; forEach recovers.
	exp := experiments.Experiment{
		ID: "bad-sweep",
		Run: func(ctx context.Context, scale experiments.Scale) ([]*experiments.Table, error) {
			tab, err := experiments.Fig5(ctx, scale) // cheap, analytic
			if err != nil {
				return nil, err
			}
			cell := scenario.Spec{Topology: scenario.TopologySpec{AQM: "nonsense"}, Groups: make([]scenario.FlowGroupSpec, 3)}
			experiments.RunDumbbell(cell, experiments.Attachments{})
			return []*experiments.Table{tab}, nil
		},
	}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{exp}, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Error == "" || !strings.Contains(rep.Runs[0].Error, "panicked") {
		t.Fatalf("run: %+v", rep.Runs[0])
	}
}

func TestRunCancellationReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelSink := sinkFunc(func(e Event) {
		if e.Kind == RunFinished {
			cancel()
		}
	})
	exps := []experiments.Experiment{simExperiment("a"), simExperiment("b"), simExperiment("c")}
	rep, err := RunExperiments(ctx, exps, RunSpec{Sink: cancelSink})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].ID != "a" {
		t.Fatalf("partial runs: %+v", rep.Runs)
	}
}

func TestRunPerRunTimeout(t *testing.T) {
	hang := experiments.Experiment{
		ID: "hang",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	exps := []experiments.Experiment{hang, simExperiment("after")}
	rep, err := RunExperiments(context.Background(), exps, RunSpec{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Runs[0].Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("timeout not recorded: %+v", rep.Runs[0])
	}
	if rep.Runs[0].Status != StatusTimeout {
		t.Fatalf("timed-out run status = %q", rep.Runs[0].Status)
	}
	if rep.Runs[1].Error != "" {
		t.Fatalf("sweep did not continue: %+v", rep.Runs[1])
	}
}

func TestRunWatchdogMarksStalledAndContinues(t *testing.T) {
	// A run that blocks without advancing the sim counters must be marked
	// stalled by the watchdog — and the sweep must go on to the next run.
	// The blocker is cooperative (exits on ctx.Done) so the abandoned
	// goroutine does not outlive the test.
	stall := experiments.Experiment{
		ID:    "wedged",
		Title: "blocks forever",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	var buf bytes.Buffer
	exps := []experiments.Experiment{stall, simExperiment("after")}
	rep, err := RunExperiments(context.Background(), exps,
		RunSpec{StallWindow: 50 * time.Millisecond, Sink: NewWriterSink(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	wedged := rep.Runs[0]
	if wedged.Status != StatusStalled {
		t.Fatalf("status = %q, want stalled: %+v", wedged.Status, wedged)
	}
	if !strings.Contains(wedged.Error, "no sim progress") || !strings.Contains(wedged.Error, "stalled") {
		t.Fatalf("stall error: %q", wedged.Error)
	}
	if len(wedged.Tables) != 0 || wedged.Tables == nil {
		t.Fatalf("stalled run tables: %+v", wedged.Tables)
	}
	after := rep.Runs[1]
	if after.Status != StatusOK || len(after.Tables) != 1 {
		t.Fatalf("sweep did not continue past the stall: %+v", after)
	}
	if !strings.Contains(buf.String(), "STALLED after") {
		t.Fatalf("sink did not render the stall:\n%s", buf.String())
	}
}

func TestRunWatchdogToleratesProgressingRun(t *testing.T) {
	// A healthy simulation that keeps the counters moving must never be
	// flagged, even with a stall window shorter than its total runtime.
	busy := experiments.Experiment{
		ID:    "busy",
		Title: "keeps simulating",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			deadline := time.Now().Add(200 * time.Millisecond)
			for time.Now().Before(deadline) {
				eng := sim.NewEngine(1)
				for i := 1; i <= 100; i++ {
					eng.At(sim.Time(i), func() {})
				}
				eng.Run(sim.Second)
				time.Sleep(5 * time.Millisecond)
			}
			tab := &experiments.Table{ID: "busy", Title: "busy", Header: []string{"ok"}}
			tab.AddRow("1")
			return []*experiments.Table{tab}, nil
		},
	}
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{busy},
		RunSpec{StallWindow: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Status != StatusOK {
		t.Fatalf("healthy run flagged: %+v", rep.Runs[0])
	}
}

func TestRunBadScaleRejectedUpfront(t *testing.T) {
	rep, err := Run(context.Background(), RunSpec{Scale: "bogus", Experiments: []string{"fig5"}})
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("err = %v", err)
	}
	if rep == nil || len(rep.Runs) != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestReportJSONSchema(t *testing.T) {
	rep, err := RunExperiments(context.Background(), []experiments.Experiment{simExperiment("s")}, RunSpec{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"schema_version", "version", "scale", "workers",
		"started_at", "wall_seconds", "sim_events", "events_per_second", "runs"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report missing %q", key)
		}
	}
	runs := decoded["runs"].([]any)
	run := runs[0].(map[string]any)
	for _, key := range []string{"id", "title", "scale", "status", "wall_seconds",
		"sim_events", "events_per_second", "sim_seconds", "tables"} {
		if _, ok := run[key]; !ok {
			t.Errorf("run missing %q", key)
		}
	}
	if run["status"] != StatusOK {
		t.Errorf("status = %v", run["status"])
	}
	if _, ok := run["error"]; ok {
		t.Error("successful run serialized an error field")
	}
	if decoded["workers"].(float64) != 3 {
		t.Errorf("workers = %v", decoded["workers"])
	}
	// Tables must be an array (never null) using the stable table schema.
	tables := run["tables"].([]any)
	tab := tables[0].(map[string]any)
	for _, key := range []string{"id", "columns", "rows"} {
		if _, ok := tab[key]; !ok {
			t.Errorf("table missing %q", key)
		}
	}
}

func TestWriterSinkLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	exps := []experiments.Experiment{simExperiment("x"), panicExperiment("y")}
	if _, err := RunExperiments(context.Background(), exps, RunSpec{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1/2] x: started", "[1/2] x: done in", "[2/2] y: FAILED after"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestVersionNeverEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("empty version")
	}
}

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(Event)

func (f sinkFunc) Event(e Event) { f(e) }
