package experiments

import (
	"context"
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// ExtCoexist quantifies the open issue of the paper's Section 7
// ("Co-existence with Non-Proactive Flows"): PERT flows back off on delay
// while loss-based SACK flows push until the buffer overflows, so in a mixed
// population PERT should lose throughput share. The sweep varies the PERT
// fraction of a fixed flow population and reports each group's mean per-flow
// goodput share and the usual link panels.
func ExtCoexist(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	bwMbps, total := 30.0, 16
	if scale == Paper {
		bwMbps, total = 150, 48
	}
	t := &Table{
		ID:    "ext-coexist",
		Title: fmt.Sprintf("Extension: PERT co-existing with loss-based SACK (%g Mbps, %d flows total)", bwMbps, total),
		Header: []string{"pert_fraction", "pert_share_per_flow", "sack_share_per_flow",
			"share_ratio", "avg_queue_pkts", "drop_rate", "utilization"},
	}
	for i, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nPert := int(frac * float64(total))
		nSack := total - nPert
		r := runCoexist(9500+int64(i), bwMbps*1e6, nPert, nSack, dur, from, until, sw)
		ratio := "-"
		if nSack > 0 && r.sackShare > 0 {
			ratio = f2(r.pertShare / r.sackShare)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100), f3(r.pertShare), f3(r.sackShare),
			ratio, f2(r.avgQueue), sci(r.dropRate), f3(r.utilization))
	}
	t.Notes = append(t.Notes,
		"shares are mean per-flow goodput fractions of link capacity",
		"the paper's Section 7 open issue: proactive flows concede bandwidth to loss-based ones;",
		"the adaptive pro-activeness mechanisms (core.AdaptiveResponder) are its sketched mitigations")
	return t, nil
}

type coexistResult struct {
	pertShare, sackShare float64
	linkPanel            // the forward bottleneck over the window
}

// runCoexist runs one mixed PERT/SACK population over a DropTail dumbbell —
// the same two-group scenario shape examples/scenarios/mixed_dumbbell.json
// expresses in JSON. PERT hosts occupy the low host indices, SACK the rest.
func runCoexist(seed int64, bw float64, nPert, nSack int, dur, from, until, sw sim.Duration) coexistResult {
	x := mustStart(scenario.Spec{
		Name: "ext-coexist",
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: bw,
			Delay:     20 * sim.Millisecond,
			Hosts:     nPert + nSack,
			RTTs:      []sim.Duration{60 * sim.Millisecond},
			AQM:       string(SackDroptail), // plain DropTail bottleneck
		},
		Groups: []scenario.FlowGroupSpec{
			{
				Label: "pert", Scheme: string(PERT), Count: nPert,
				From: fmt.Sprintf("left[0:%d]", max(nPert, 1)), To: fmt.Sprintf("right[0:%d]", max(nPert, 1)),
				StartWindow: sw,
			},
			{
				Label: "sack", Scheme: string(SackDroptail), Count: nSack,
				From: fmt.Sprintf("left[%d:%d]", nPert, nPert+nSack), To: fmt.Sprintf("right[%d:%d]", nPert, nPert+nSack),
				StartWindow: sw,
			},
		},
		Duration: dur, MeasureFrom: from, MeasureUntil: until,
	})
	scen := fmt.Sprintf("ext-coexist bw=%g pert=%d sack=%d", bw, nPert, nSack)
	x.audit(netem.AuditConfig{Scenario: scen})
	x.Spawn()

	x.g.Run(from)
	w := x.open()
	x.g.Run(until)

	capacityBytes := bw / 8 * (until - from).Seconds()
	res := coexistResult{w.share(0, capacityBytes), w.share(1, capacityBytes), w.close()[0]}
	x.mustFinish(scen)
	return res
}
