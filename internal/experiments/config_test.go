package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// section4Doc is the schema-v2 document EXPERIMENTS.md gives for a Section 4
// cell: ext-lossy's 1%-loss PERT cell at quick scale, with the host and
// buffer rule written out.
const section4Doc = "testdata/section4_cell.json"

func loadSection4Doc(t *testing.T) scenario.Spec {
	t.Helper()
	f, err := os.Open(section4Doc)
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

// TestLoadScenario: the documented v2 document is exactly the cell ext-lossy
// builds, once sizeDumbbell has written out the host and buffer rule — and
// EXPERIMENTS.md carries it verbatim.
func TestLoadScenario(t *testing.T) {
	want := Quick.dumbbell(9502, 30, 12)
	want.Links[0].LossRate = 0.01
	want = PERT.on(want)
	sizeDumbbell(&want)
	got := loadSection4Doc(t)
	got.Name = ""
	if !reflect.DeepEqual(got, want) {
		t.Errorf("document differs from the ext-lossy cell:\n  doc:  %+v\n  cell: %+v", got, want)
	}

	doc, err := os.ReadFile(section4Doc)
	if err != nil {
		t.Fatal(err)
	}
	guide, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(guide, doc) {
		t.Errorf("EXPERIMENTS.md does not carry %s verbatim", section4Doc)
	}
}

// TestLoadScenarioRuns: the sized spec builds the same network under
// RunScenario as under RunDumbbell, so the two runners report the same
// bottleneck panel for it (over a shortened run, to keep the test cheap).
func TestLoadScenarioRuns(t *testing.T) {
	spec := loadSection4Doc(t)
	spec.Duration, spec.MeasureFrom, spec.MeasureUntil = seconds(12), seconds(6), seconds(12)
	tab, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := RunDumbbell(spec, Attachments{})
	want := []string{"link forward", f2(r.AvgQueue), sci(r.DropRate), sci(r.MarkRate), f3(r.Utilization)}
	if got := tab.Rows[0][:5]; !reflect.DeepEqual(got, want) {
		t.Errorf("RunScenario forward row %v, RunDumbbell %v", got, want)
	}
	if r.Utilization <= 0.3 {
		t.Fatalf("document-driven run idle: %+v", r)
	}
}

// TestLoadScenarioRejectsBadInput: the flat schema this package used to load
// is gone; a flat document fails to decode with an error that points at
// schema v2.
func TestLoadScenarioRejectsBadInput(t *testing.T) {
	for _, flat := range []string{
		`{"scheme":"PERT","bandwidth_bps":1e6,"flows":1,"duration":"10s"}`,
		`{"bandwidth_bps":30e6,"flows":8,"web_sessions":5,"duration":"40s","rtts":["60ms"]}`,
	} {
		_, err := scenario.Load(strings.NewReader(flat))
		if err == nil || !strings.Contains(err.Error(), "schema v2") {
			t.Errorf("%s: err = %v, want a decoding error naming schema v2", flat, err)
		}
	}
}

// cellDoc is a one-group Section 4 document around the given fields.
func cellDoc(t *testing.T, topo, rest string) scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(strings.NewReader(`{"topology":{"template":"dumbbell","bandwidth_bps":1e6` + topo +
		`},"groups":[{"label":"fwd","scheme":"PERT","count":1,"from":"left","to":"right"}],"duration":"20s"` + rest + `}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadScenarioDefaults: a minimal document takes the defaults the flat
// schema had — measure_from = duration/4, start_window = measure_from/2 —
// and sizeDumbbell writes out the compiler's one 60 ms RTT.
func TestLoadScenarioDefaults(t *testing.T) {
	spec := cellDoc(t, "", "")
	if spec.MeasureFrom != seconds(5) || spec.Groups[0].StartWindow != seconds(2.5) {
		t.Fatalf("window defaults: measure_from %v, start_window %v", spec.MeasureFrom, spec.Groups[0].StartWindow)
	}
	sizeDumbbell(&spec)
	if !reflect.DeepEqual(spec.Topology.RTTs, []sim.Duration{ms(60)}) {
		t.Fatalf("rtts = %v", spec.Topology.RTTs)
	}
}

// TestLoadScenarioFaultFields: a cell's forward-link faults load into its
// Links[0], the rule the tables set.
func TestLoadScenarioFaultFields(t *testing.T) {
	spec := cellDoc(t, "", `,"links":[{"link":"forward","loss_rate":0.01,"dup_rate":0.002,"reorder_rate":0.005,"reorder_extra":"3ms"}]`)
	want := scenario.LinkRule{Link: "forward", LossRate: 0.01, DupRate: 0.002, ReorderRate: 0.005, ReorderExtra: ms(3)}
	if len(spec.Links) != 1 || !reflect.DeepEqual(spec.Links[0], want) {
		t.Fatalf("links = %+v", spec.Links)
	}
}

// TestLoadScenarioMeasureUntilAndSchedule: a window end and a forward
// schedule (capacity and delay change, flap down and up) load as written,
// and the delay change bars the cell from the bottleneck cut.
func TestLoadScenarioMeasureUntilAndSchedule(t *testing.T) {
	spec := cellDoc(t, "", `,"measure_from":"5s","measure_until":"15s","links":[{"link":"forward","schedule":[
		{"at":"8s","capacity_bps":5e5,"delay":"10ms"},{"at":"12s","down":true},{"at":"14s","up":true}]}]`)
	if spec.MeasureUntil != seconds(15) {
		t.Fatalf("measure_until = %v", spec.MeasureUntil)
	}
	want := netem.LinkSchedule{{At: sim.Time(seconds(8)), Capacity: 5e5, Delay: ms(10)}, {At: sim.Time(seconds(12)), Down: true}, {At: sim.Time(seconds(14)), Up: true}}
	if !reflect.DeepEqual(spec.Links[0].Schedule, want) {
		t.Fatalf("schedule = %+v", spec.Links[0].Schedule)
	}
	if bar := (Attachments{}).shardBar(spec); bar != "a delay-changing schedule" {
		t.Fatalf("shardBar = %q", bar)
	}
}

func TestRunReplicated(t *testing.T) {
	spec := quickSpec(100)
	spec.Duration = seconds(15)
	spec.MeasureFrom = seconds(5)
	spec.MeasureUntil = seconds(15)
	res := RunReplicated(PERT.on(spec), 4)
	if res.Utilization.N != 4 {
		t.Fatalf("n = %d", res.Utilization.N)
	}
	if res.Utilization.Mean < 0.5 || res.Utilization.Mean > 1.01 {
		t.Fatalf("mean util = %v", res.Utilization.Mean)
	}
	if res.Utilization.CI95 < 0 {
		t.Fatalf("ci = %v", res.Utilization.CI95)
	}
	// Different seeds must actually differ (std > 0) for a stochastic
	// scenario with web-less but staggered flows... start times are drawn
	// from the seeded RNG, so some variance is expected.
	if res.AvgQueue.Std == 0 && res.Jain.Std == 0 && res.Utilization.Std == 0 {
		t.Fatal("replicas identical across seeds")
	}
}

func TestRunReplicatedValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 accepted")
		}
	}()
	RunReplicated(PERT.on(quickSpec(1)), 0)
}
