// Acceptance tests: fast, end-to-end checks of the paper's headline claims,
// run as part of the ordinary test suite (`go test .`). Each exercises the
// full stack — topology, TCP, queues, measurement — at reduced scale.
package pert

import (
	"testing"

	"pert/internal/experiments"
	"pert/internal/fluid"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// spec is a small steady-state Section 4 cell shared by the claims: flows
// long-term flows under scheme (forward, reverse and web groups in that
// order, the last two empty) over a 20 Mbps, 60 ms dumbbell.
func spec(seed int64, flows int, scheme experiments.Scheme) scenario.Spec {
	s, sw := string(scheme), sim.Seconds(3)
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: 20e6,
			RTTs:      []sim.Duration{60 * sim.Millisecond},
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Scheme: s, Count: flows, From: "left", To: "right", StartWindow: sw},
			{Label: "rev", Scheme: s, From: "right", To: "left", StartWindow: sw},
			{Label: "web", Scheme: s, From: "left", To: "right", Traffic: scenario.Web, StartWindow: sw},
		},
		Duration:     sim.Seconds(30),
		MeasureFrom:  sim.Seconds(10),
		MeasureUntil: sim.Seconds(30),
	}
}

// run runs the claim's cell under scheme.
func run(seed int64, flows int, scheme experiments.Scheme) experiments.DumbbellResult {
	return experiments.RunDumbbell(spec(seed, flows, scheme), experiments.Attachments{})
}

// TestClaimAQMWithoutRouters is the paper's thesis: PERT over plain DropTail
// achieves the queue/loss profile of router AQM with ECN.
func TestClaimAQMWithoutRouters(t *testing.T) {
	pert := run(1, 8, experiments.PERT)
	droptail := run(1, 8, experiments.SackDroptail)
	red := run(1, 8, experiments.SackRED)

	if pert.AvgQueue >= droptail.AvgQueue/2 {
		t.Errorf("PERT queue %.1f vs DropTail %.1f: expected large reduction", pert.AvgQueue, droptail.AvgQueue)
	}
	if pert.DropRate > 1e-4 {
		t.Errorf("PERT drop rate %.2g, want ~0", pert.DropRate)
	}
	if pert.AvgQueue > 2*red.AvgQueue+10 {
		t.Errorf("PERT queue %.1f far above router RED %.1f", pert.AvgQueue, red.AvgQueue)
	}
	if pert.Utilization < 0.85 {
		t.Errorf("PERT utilization %.3f", pert.Utilization)
	}
	if pert.Jain < 0.98 {
		t.Errorf("PERT fairness %.3f", pert.Jain)
	}
}

// TestClaimRetainsMultiplicativeDecreaseFairness: unlike Vegas's AIAD early
// response, PERT keeps MD and with it near-perfect fairness among equal
// flows.
func TestClaimFairnessBeatsVegas(t *testing.T) {
	pert := run(2, 12, experiments.PERT)
	vegas := run(2, 12, experiments.Vegas)
	if pert.Jain < vegas.Jain-0.005 {
		t.Errorf("PERT Jain %.3f below Vegas %.3f", pert.Jain, vegas.Jain)
	}
	if pert.Jain < 0.98 {
		t.Errorf("PERT Jain %.3f", pert.Jain)
	}
}

// TestClaimStabilityBoundary reproduces the Section 5 number: Theorem 1's
// certified boundary for the Figure 13 configuration is 171 ms.
func TestClaimStabilityBoundary(t *testing.T) {
	p := fluid.PERTParams{
		C: 100, N: 5, R: 0.1,
		Tmin: 0.05, Tmax: 0.1, Pmax: 0.1,
		Alpha: 0.99, Delta: 1e-4,
	}
	b := fluid.StabilityBoundaryR(p, 0.05, 0.3, 0.001)
	if b < 0.168 || b > 0.174 {
		t.Errorf("stability boundary %.3f s, paper says 0.171 s", b)
	}
}

// TestClaimPIEmulation: PERT emulating PI holds the queue near the target
// with essentially no drops (Section 6's preliminary result).
func TestClaimPIEmulation(t *testing.T) {
	r := run(3, 8, experiments.PERTPI)
	if r.DropRate > 1e-3 {
		t.Errorf("PERT/PI drop rate %.2g", r.DropRate)
	}
	if r.Utilization < 0.85 {
		t.Errorf("PERT/PI utilization %.3f", r.Utilization)
	}
}
