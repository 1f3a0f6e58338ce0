package experiments

import (
	"context"
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/trafficgen"
)

// Fig12 reproduces "response to sudden changes in responsive traffic":
// cohorts of flows arrive at fixed intervals and later depart; the table
// reports each cohort's aggregate throughput in every interval, showing how
// fast the scheme converges to the new fair share. The paper shows PERT (its
// Figure 12) with SACK/RED-ECN and Vegas in the companion thesis; we run all
// four schemes.
func Fig12(ctx context.Context, scale Scale, scheme Scheme) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	cohortSize := 25
	phase := seconds(100) // paper: +25 flows every 100 s, then -25 every 100 s
	bw := 150e6
	if scale == Quick {
		cohortSize, phase, bw = 8, seconds(20), 30e6
	}
	nCohorts := 4 // arrivals for the first half, departures for the second

	// Cohort c arrives at c*phase, staggered within 5% of the phase to avoid
	// a synchronized blast.
	groups := make([]scenario.FlowGroupSpec, nCohorts)
	for c := range groups {
		groups[c] = scenario.FlowGroupSpec{
			Label:  fmt.Sprintf("cohort%d", c+1),
			Scheme: string(scheme), Count: cohortSize, From: "left", To: "right",
			StartAt: sim.Time(c) * phase, StartWindow: phase / 20,
		}
	}
	x, err := start(scenario.Spec{
		Name: "fig12",
		Seed: 8000,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: bw,
			Delay:     ms(20),
			Hosts:     64,
			RTTs:      []sim.Duration{ms(60)},
			AQM:       string(scheme),
		},
		Groups:   groups,
		Duration: sim.Time(2*nCohorts) * phase,
	})
	if err != nil {
		return nil, err
	}
	x.audit(netem.AuditConfig{Scenario: "fig12 scheme=" + string(scheme)})
	x.Spawn()
	// Departures: cohort c leaves at (2*nCohorts - 1 - c) * phase, i.e.
	// first-in last-out as in the paper (flows leave 25 at a time).
	for c := 0; c < nCohorts; c++ {
		flows := x.Groups[c].Flows
		x.Eng.At(sim.Time(2*nCohorts-1-c)*phase, func() {
			for _, f := range flows {
				f.Close()
			}
		})
	}

	t := &Table{
		ID:     "fig12",
		Title:  fmt.Sprintf("Dynamic behaviour under cohort arrivals/departures (%s, %d flows per cohort)", scheme, cohortSize),
		XLabel: "interval",
		Header: []string{"interval", "active"},
	}
	for c := 0; c < nCohorts; c++ {
		t.Header = append(t.Header, fmt.Sprintf("cohort%d_Mbps", c+1))
	}

	prev := make([][]uint64, nCohorts)
	for c := range prev {
		prev[c] = trafficgen.GoodputSnapshot(x.Groups[c].Flows)
	}
	for step := 0; step < 2*nCohorts; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x.g.Run(sim.Time(step+1) * phase)
		active := 0
		row := []string{
			fmt.Sprintf("%d-%ds", step*int(phase/sim.Second), (step+1)*int(phase/sim.Second)),
			"",
		}
		for c := 0; c < nCohorts; c++ {
			flows := x.Groups[c].Flows
			var sum float64
			for _, b := range trafficgen.Goodputs(flows, prev[c]) {
				sum += b
			}
			prev[c] = trafficgen.GoodputSnapshot(flows)
			mbps := sum * 8 / phase.Seconds() / 1e6
			if mbps > 0.05 {
				active += cohortSize
			}
			row = append(row, f2(mbps))
		}
		row[1] = fmt.Sprint(active)
		t.AddRow(row...)
	}
	if err := x.finish(); err != nil {
		return nil, fmt.Errorf("fig12 scheme=%s %w", scheme, err)
	}
	t.Notes = append(t.Notes, "cohort shares should converge to bandwidth/active_cohorts within each interval")
	return t, nil
}
