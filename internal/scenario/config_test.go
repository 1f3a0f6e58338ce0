package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pert/internal/netem"
	"pert/internal/sim"
)

func TestLoadV2(t *testing.T) {
	spec, err := Load(strings.NewReader(`{
		"name": "mix", "seed": 9,
		"topology": {
			"template": "dumbbell", "bandwidth_bps": 30e6, "delay": "20ms",
			"hosts": 8, "rtts": ["60ms", "100ms"], "aqm": "Sack/Droptail"
		},
		"groups": [
			{"label": "p", "scheme": "PERT", "count": 4, "from": "left[0:4]", "to": "right[0:4]", "start_window": "2s"},
			{"label": "w", "scheme": "Sack/Droptail", "count": 3, "from": "left[4:8]", "to": "right[4:8]", "traffic": "web"}
		],
		"links": [
			{"link": "forward", "loss_rate": 0.001, "schedule": [{"at": "20s", "capacity_bps": 15e6}]}
		],
		"duration": "40s", "measure_from": "10s", "measure_until": "35s"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "mix" || spec.Seed != 9 {
		t.Fatalf("header = %q/%d", spec.Name, spec.Seed)
	}
	if spec.Topology.Template != DumbbellTemplate || spec.Topology.AQM != "Sack/Droptail" {
		t.Fatalf("topology = %+v", spec.Topology)
	}
	if len(spec.Topology.RTTs) != 2 || spec.Topology.RTTs[1] != ms(100) {
		t.Fatalf("rtts = %v", spec.Topology.RTTs)
	}
	if len(spec.Groups) != 2 || spec.Groups[0].StartWindow != seconds(2) {
		t.Fatalf("groups = %+v", spec.Groups)
	}
	if spec.Groups[1].kind() != Web {
		t.Fatalf("group 1 kind = %v", spec.Groups[1].kind())
	}
	// start_window default is measure_from/2.
	if spec.Groups[1].StartWindow != seconds(5) {
		t.Fatalf("default start_window = %v", spec.Groups[1].StartWindow)
	}
	if spec.MeasureUntil != seconds(35) {
		t.Fatalf("measure_until = %v", spec.MeasureUntil)
	}
	if len(spec.Links) != 1 || len(spec.Links[0].Schedule) != 1 {
		t.Fatalf("links = %+v", spec.Links)
	}
	if spec.Links[0].Schedule[0].At != sim.Time(seconds(20)) || spec.Links[0].Schedule[0].Capacity != 15e6 {
		t.Fatalf("change = %+v", spec.Links[0].Schedule[0])
	}
}

func TestLoadV2Rejects(t *testing.T) {
	topoOK := `"topology": {"template": "dumbbell", "bandwidth_bps": 1e6}`
	groupOK := `"groups": [{"scheme": "PERT", "count": 1, "from": "left", "to": "right"}]`
	cases := map[string]string{
		"garbage":           `nope`,
		"unknown field":     `{` + topoOK + `,` + groupOK + `,"duration":"10s","bogus":1}`,
		"no duration":       `{` + topoOK + `,` + groupOK + `}`,
		"bad duration":      `{` + topoOK + `,` + groupOK + `,"duration":"xyz"}`,
		"bad measure_from":  `{` + topoOK + `,` + groupOK + `,"duration":"10s","measure_from":"x"}`,
		"until > duration":  `{` + topoOK + `,` + groupOK + `,"duration":"10s","measure_until":"12s"}`,
		"until <= from":     `{` + topoOK + `,` + groupOK + `,"duration":"10s","measure_from":"5s","measure_until":"5s"}`,
		"bad target":        `{` + topoOK + `,` + groupOK + `,"duration":"10s","target_delay":"-1ms"}`,
		"no scheme":         `{` + topoOK + `,"groups":[{"count":1,"from":"left","to":"right"}],"duration":"10s"}`,
		"unknown scheme":    `{` + topoOK + `,"groups":[{"scheme":"TURBO","count":1,"from":"left","to":"right"}],"duration":"10s"}`,
		"bad start_window":  `{` + topoOK + `,"groups":[{"scheme":"PERT","count":1,"from":"left","to":"right","start_window":"-1s"}],"duration":"10s"}`,
		"bad rtt":           `{"topology":{"template":"dumbbell","bandwidth_bps":1e6,"rtts":["abc"]},` + groupOK + `,"duration":"10s"}`,
		"bad template":      `{"topology":{"template":"ring","bandwidth_bps":1e6},` + groupOK + `,"duration":"10s"}`,
		"bad delay":         `{"topology":{"template":"dumbbell","bandwidth_bps":1e6,"delay":"-1ms"},` + groupOK + `,"duration":"10s"}`,
		"bad endpoint":      `{` + topoOK + `,"groups":[{"scheme":"PERT","count":1,"from":"cloud1","to":"right"}],"duration":"10s"}`,
		"bad link":          `{` + topoOK + `,` + groupOK + `,"links":[{"link":"core1"}],"duration":"10s"}`,
		"schedule late":     `{` + topoOK + `,` + groupOK + `,"links":[{"link":"forward","schedule":[{"at":"11s"}]}],"duration":"10s"}`,
		"schedule down+up":  `{` + topoOK + `,` + groupOK + `,"links":[{"link":"forward","schedule":[{"at":"5s","down":true,"up":true}]}],"duration":"10s"}`,
		"bad reorder_extra": `{` + topoOK + `,` + groupOK + `,"links":[{"link":"forward","reorder_extra":"-1ms"}],"duration":"10s"}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every committed example scenario must load cleanly — the same gate `make
// check` runs via pertsim -validate.
func TestExampleScenariosLoad(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least the two documented example scenarios, found %v", paths)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(strings.NewReader(string(raw))); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// fuzzNodeBudget bounds the network a fuzzed document may build. Compile
// constructs every node and an all-pairs routing table, so an accepted
// "hosts": 1e6 costs memory and time without exercising anything new. 600
// admits the largest derived dumbbell (256 host pairs) and the paper's
// parking lot.
const fuzzNodeBudget = 600

// withinNodeBudget reports whether the spec's topology builds at most
// fuzzNodeBudget nodes, counting a dumbbell whose host count is derived from
// its groups at the 256-pair cap. Each factor is bounded before multiplying,
// so a fuzzed "hosts": 2^62 cannot overflow its way under the budget.
func withinNodeBudget(s Spec) bool {
	if s.Topology.Template == ParkingLotTemplate {
		r, c := s.Topology.routers(), s.Topology.cloudSize()
		return r <= fuzzNodeBudget && c < fuzzNodeBudget && r*(c+1) <= fuzzNodeBudget
	}
	hosts := s.Topology.Hosts
	if hosts == 0 {
		hosts = 256
	}
	return hosts <= (fuzzNodeBudget-2)/2
}

// FuzzLoadSpec hardens the v2 JSON loader, the one way a user's file enters
// the program: no panics, every accepted spec satisfies its own Validate
// contract, and — within the node budget — compiles on a fresh engine and
// network without error or panic, so nothing the loader accepts can fail
// the runner.
func FuzzLoadSpec(f *testing.F) {
	f.Add(`{"topology":{"template":"dumbbell","bandwidth_bps":1e6},"groups":[{"scheme":"PERT","count":1,"from":"left","to":"right"}],"duration":"10s"}`)
	f.Add(`{"topology":{"template":"parkinglot","routers":4},"groups":[{"scheme":"PERT","count":2,"from":"cloud1","to":"cloud4"}],"duration":"20s"}`)
	f.Add(`{"topology":{"template":"dumbbell","bandwidth_bps":1e6},"groups":[{"scheme":"PERT","count":1,"from":"left[0:2]","to":"right[0:2]","traffic":"web"}],"duration":"10s","measure_until":"8s"}`)
	f.Add(`{"topology":{"template":"dumbbell","bandwidth_bps":1e6},"groups":[{"scheme":"PERT","count":1,"from":"left","to":"right"}],"links":[{"link":"forward","loss_rate":0.01,"schedule":[{"at":"5s","down":true}]}],"duration":"10s"}`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Add(`{"topology":{"template":"ring"},"duration":"10s"}`)

	f.Fuzz(func(t *testing.T, data string) {
		spec, err := Load(strings.NewReader(data))
		if err != nil {
			return
		}
		// Load promises a validated spec: re-validating must agree.
		if err := spec.Validate(); err != nil {
			t.Fatalf("Load accepted a spec Validate rejects: %v\n%s", err, data)
		}
		if spec.Duration <= 0 || spec.MeasureFrom < 0 || spec.measureUntil() > spec.Duration {
			t.Fatalf("inconsistent window: %+v", spec)
		}
		if !withinNodeBudget(spec) {
			return
		}
		eng := sim.NewEngine(spec.Seed)
		if _, err := Compile(eng, netem.NewNetwork(eng), spec); err != nil {
			t.Fatalf("Load accepted a spec that does not compile: %v\n%s", err, data)
		}
	})
}
