package experiments

import (
	"context"
	"fmt"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// Scale selects experiment sizing.
type Scale string

// Quick shrinks bandwidth and duration while preserving dimensionless shape
// (buffer in BDPs, flow shares, measurement windows of hundreds of RTTs);
// Paper uses the publication's exact parameters and takes correspondingly
// long.
const (
	Quick Scale = "quick"
	Paper Scale = "paper"
)

// Valid reports whether s names a known scale.
func (s Scale) Valid() bool { return s == Quick || s == Paper }

// checkRun is the shared entry-point guard: cancelled contexts and unknown
// scales become errors before any scenario is built.
func checkRun(ctx context.Context, scale Scale) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !scale.Valid() {
		return fmt.Errorf("experiments: unknown scale %q (want %q or %q)", scale, Quick, Paper)
	}
	return nil
}

// seconds is shorthand for durations in experiment specs.
func seconds(x float64) sim.Duration { return sim.Seconds(x) }

// ms is shorthand for millisecond durations in experiment specs.
func ms(x float64) sim.Duration { return sim.Milliseconds(x) }

// window returns (duration, measureFrom, measureUntil, startWindow) for the
// standard steady-state methodology: the paper runs 400 s and measures
// 100-300 s with starts in (0, 50 s); quick runs shrink this 8x.
func (s Scale) window() (dur, from, until, startWin sim.Duration) {
	if s == Paper {
		return seconds(400), seconds(100), seconds(300), seconds(50)
	}
	return seconds(50), seconds(15), seconds(45), seconds(6)
}

// dumbbell is the standard Section 4 cell at this scale: flows long-term
// flows at 60 ms over an mbps bottleneck, run and measured over window().
// Its groups name no scheme and its queues are DropTail, ready for a custom
// controller, until Scheme.on names one. Tables vary it by editing the result.
func (s Scale) dumbbell(seed int64, mbps float64, flows int) scenario.Spec {
	dur, from, until, sw := s.window()
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: mbps * 1e6,
			RTTs:      []sim.Duration{ms(60)},
			AQM:       string(SackDroptail),
		},
		Links: []scenario.LinkRule{{Link: "forward"}},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Count: flows, From: "left", To: "right", StartWindow: sw},
			{Label: "rev", From: "right", To: "left", StartWindow: sw},
			{Label: "web", From: "left", To: "right", Traffic: scenario.Web, StartWindow: sw},
		},
		Duration: dur, MeasureFrom: from, MeasureUntil: until,
	}
}
