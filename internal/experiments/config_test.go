package experiments

import (
	"strings"
	"testing"

	"pert/internal/sim"
)

func TestLoadScenario(t *testing.T) {
	in := `{
		"scheme": "PERT",
		"seed": 7,
		"bandwidth_bps": 30e6,
		"rtts": ["60ms", "100ms"],
		"flows": 8,
		"web_sessions": 5,
		"duration": "40s",
		"measure_from": "10s",
		"access_jitter": "2ms"
	}`
	spec, scheme, err := LoadScenario(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if scheme != PERT {
		t.Fatalf("scheme = %v", scheme)
	}
	if spec.Bandwidth != 30e6 || spec.Flows != 8 || spec.WebSessions != 5 {
		t.Fatalf("spec = %+v", spec)
	}
	if len(spec.RTTs) != 2 || spec.RTTs[0] != 60*sim.Millisecond || spec.RTTs[1] != 100*sim.Millisecond {
		t.Fatalf("rtts = %v", spec.RTTs)
	}
	if spec.Duration != seconds(40) || spec.MeasureFrom != seconds(10) || spec.MeasureUntil != seconds(40) {
		t.Fatalf("window = %v %v %v", spec.Duration, spec.MeasureFrom, spec.MeasureUntil)
	}
	if spec.AccessJitter != ms(2) {
		t.Fatalf("jitter = %v", spec.AccessJitter)
	}
	if spec.StartWindow != seconds(5) { // default measure_from/2
		t.Fatalf("start window = %v", spec.StartWindow)
	}
}

func TestLoadScenarioDefaults(t *testing.T) {
	spec, scheme, err := LoadScenario(strings.NewReader(`{"bandwidth_bps": 1e6, "flows": 1, "duration": "10s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if scheme != PERT {
		t.Fatalf("default scheme = %v", scheme)
	}
	if len(spec.RTTs) != 1 || spec.RTTs[0] != 60*sim.Millisecond {
		t.Fatalf("default rtts = %v", spec.RTTs)
	}
	if spec.MeasureFrom != spec.Duration/4 {
		t.Fatalf("default measure_from = %v", spec.MeasureFrom)
	}
}

func TestLoadScenarioRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":                       `nope`,
		"unknown field":                 `{"bandwidth_bps":1e6,"flows":1,"duration":"1s","bogus":1}`,
		"no bandwidth":                  `{"flows":1,"duration":"10s"}`,
		"no traffic":                    `{"bandwidth_bps":1e6,"duration":"10s"}`,
		"no duration":                   `{"bandwidth_bps":1e6,"flows":1}`,
		"bad rtt":                       `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","rtts":["abc"]}`,
		"bad jitter":                    `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","access_jitter":"xyz"}`,
		"negative duration":             `{"bandwidth_bps":1e6,"flows":1,"duration":"-5s"}`,
		"negative jitter":               `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","access_jitter":"-2ms"}`,
		"negative start window":         `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","start_window":"-1s"}`,
		"measure_from at end":           `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","measure_from":"10s"}`,
		"bad target_delay":              `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","target_delay":"-3ms"}`,
		"unknown scheme":                `{"scheme":"TURBO","bandwidth_bps":1e6,"flows":1,"duration":"10s"}`,
		"loss_rate >= 1":                `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","loss_rate":1.0}`,
		"negative dup_rate":             `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","dup_rate":-0.1}`,
		"reorder_rate >= 1":             `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","reorder_rate":2}`,
		"bad reorder_extra":             `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","reorder_extra":"-1ms"}`,
		"measure_until beyond duration": `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","measure_until":"12s"}`,
		"measure_until before from":     `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","measure_from":"5s","measure_until":"4s"}`,
		"schedule beyond duration":      `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","schedule":[{"at":"11s","capacity_bps":5e5}]}`,
		"schedule negative capacity":    `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","schedule":[{"at":"5s","capacity_bps":-1}]}`,
		"schedule down and up":          `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","schedule":[{"at":"5s","down":true,"up":true}]}`,
		"schedule bad time":             `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","schedule":[{"at":"wat"}]}`,
		"measure_until zero":            `{"bandwidth_bps":1e6,"flows":1,"duration":"10s","measure_from":"0s","measure_until":"0s"}`,
		"reverse flows only":            `{"bandwidth_bps":1e6,"reverse_flows":3,"duration":"10s"}`,
		"negative flows":                `{"bandwidth_bps":1e6,"flows":-1,"web_sessions":2,"duration":"5s"}`,
		"zero rtt":                      `{"bandwidth_bps":1e6,"flows":2,"rtts":["0ms"],"duration":"5s"}`,
	}
	for name, in := range cases {
		if _, _, err := LoadScenario(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadScenarioFaultFields(t *testing.T) {
	spec, _, err := LoadScenario(strings.NewReader(`{
		"bandwidth_bps": 1e6, "flows": 1, "duration": "10s",
		"loss_rate": 0.01, "dup_rate": 0.002, "reorder_rate": 0.005,
		"reorder_extra": "3ms"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.LossRate != 0.01 || spec.DupRate != 0.002 || spec.ReorderRate != 0.005 {
		t.Fatalf("fault rates = %+v", spec)
	}
	if spec.ReorderExtra != ms(3) {
		t.Fatalf("reorder_extra = %v", spec.ReorderExtra)
	}
}

func TestLoadScenarioMeasureUntilAndSchedule(t *testing.T) {
	spec, _, err := LoadScenario(strings.NewReader(`{
		"bandwidth_bps": 1e6, "flows": 1, "duration": "20s",
		"measure_from": "5s", "measure_until": "15s",
		"schedule": [
			{"at": "8s", "capacity_bps": 5e5, "delay": "10ms"},
			{"at": "12s", "down": true},
			{"at": "14s", "up": true}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.MeasureUntil != seconds(15) {
		t.Fatalf("measure_until = %v", spec.MeasureUntil)
	}
	if len(spec.Schedule) != 3 {
		t.Fatalf("schedule = %+v", spec.Schedule)
	}
	if spec.Schedule[0].Capacity != 5e5 || spec.Schedule[0].Delay != ms(10) {
		t.Fatalf("change 0 = %+v", spec.Schedule[0])
	}
	if !spec.Schedule[1].Down || !spec.Schedule[2].Up {
		t.Fatalf("flaps = %+v", spec.Schedule[1:])
	}
}

func TestLoadScenarioRuns(t *testing.T) {
	spec, scheme, err := LoadScenario(strings.NewReader(
		`{"scheme":"Vegas","bandwidth_bps":10e6,"flows":2,"duration":"8s","measure_from":"2s"}`))
	if err != nil {
		t.Fatal(err)
	}
	r := RunDumbbell(spec, scheme)
	if r.Utilization <= 0.3 {
		t.Fatalf("config-driven run idle: %+v", r)
	}
}

func TestRunReplicated(t *testing.T) {
	spec := quickSpec(100)
	spec.Duration = seconds(15)
	spec.MeasureFrom = seconds(5)
	spec.MeasureUntil = seconds(15)
	res := RunReplicated(spec, PERT, 4)
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
	RunReplicated(quickSpec(1), PERT, 0)
}
