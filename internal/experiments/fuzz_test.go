package experiments

import (
	"strings"
	"testing"

	"pert/internal/sim"
)

// FuzzLoadScenario hardens the JSON scenario parser: no panics, and accepted
// scenarios must produce internally consistent specs that pass the one
// validator and compile — so nothing the loader accepts can panic the runner.
func FuzzLoadScenario(f *testing.F) {
	f.Add(`{"scheme":"PERT","bandwidth_bps":1e6,"flows":1,"duration":"10s"}`)
	f.Add(`{"bandwidth_bps":30e6,"flows":8,"web_sessions":5,"duration":"40s","measure_from":"10s","rtts":["60ms","100ms"],"access_jitter":"2ms"}`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Add(`{"bandwidth_bps":-1,"flows":1,"duration":"10s"}`)
	f.Add(`{"bandwidth_bps":1e6,"flows":1,"duration":"-5s"}`)
	f.Add(`{"bandwidth_bps":1e6,"flows":1,"duration":"10s","measure_until":"8s"}`)
	f.Add(`{"bandwidth_bps":1e6,"flows":1,"duration":"10s","schedule":[{"at":"5s","capacity_bps":5e5}]}`)
	f.Add(`{"bandwidth_bps":1e6,"flows":1,"duration":"10s","schedule":[{"at":"15s"}]}`)
	f.Add(`{"bandwidth_bps":1e6,"flows":-1,"web_sessions":2,"duration":"5s"}`)
	f.Add(`{"bandwidth_bps":1e6,"flows":2,"rtts":["0ms"],"duration":"5s"}`)

	f.Fuzz(func(t *testing.T, data string) {
		spec, scheme, err := LoadScenario(strings.NewReader(data))
		if err != nil {
			return
		}
		if spec.Bandwidth <= 0 {
			t.Fatal("accepted non-positive bandwidth")
		}
		if spec.Duration <= 0 || spec.MeasureFrom < 0 ||
			spec.MeasureUntil <= spec.MeasureFrom || spec.MeasureUntil > spec.Duration {
			t.Fatalf("inconsistent window: %+v", spec)
		}
		for _, ch := range spec.Schedule {
			if ch.At < 0 || sim.Duration(ch.At) > spec.Duration {
				t.Fatalf("accepted schedule change outside the run: %+v", ch)
			}
			if ch.Down && ch.Up {
				t.Fatalf("accepted contradictory flap: %+v", ch)
			}
		}
		if len(spec.RTTs) == 0 {
			t.Fatal("accepted scenario without RTTs")
		}
		if scheme == "" {
			t.Fatal("empty scheme returned without error")
		}
		if err := spec.Validate(scheme); err != nil {
			t.Fatalf("accepted a document Validate rejects: %v", err)
		}
		if _, err := start(spec.scenarioSpec(string(scheme), false)); err != nil {
			t.Fatalf("accepted a document that does not compile: %v", err)
		}
	})
}
