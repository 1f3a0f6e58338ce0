package experiments

import (
	"context"
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/stats"
)

// Fig11 reproduces "Impact of multiple bottleneck links": the Figure 10
// parking lot (six routers, 150 Mbps / 5 ms core links, 20-host clouds),
// hop-by-hop traffic between adjacent clouds plus through traffic from cloud
// 1 to cloud 6; per-core-link queue, drops, utilization and per-hop fairness.
func Fig11(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	coreBW, cloud, perHop := 150e6, 20, 20
	if scale == Quick {
		coreBW, cloud, perHop = 30e6, 8, 8
	}

	t := &Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("Multiple bottlenecks (parking lot, %g Mbps core links)", coreBW/1e6),
		Header: []string{"scheme", "link", "avg_queue_pkts", "drop_rate", "utilization", "jain_hop_flows"},
	}

	const routers = 6
	for si, scheme := range AllSection4Schemes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Hop-by-hop groups cloud i -> cloud i+1, then through traffic
		// crossing every core link — attach order fixes the start-time draws.
		var groups []scenario.FlowGroupSpec
		for hop := 1; hop < routers; hop++ {
			groups = append(groups, scenario.FlowGroupSpec{
				Label:  fmt.Sprintf("R%d-R%d", hop, hop+1),
				Scheme: string(scheme), Count: perHop,
				From: fmt.Sprintf("cloud%d", hop), To: fmt.Sprintf("cloud%d", hop+1),
				StartWindow: sw,
			})
		}
		groups = append(groups, scenario.FlowGroupSpec{
			Label:  "through",
			Scheme: string(scheme), Count: perHop,
			From: "cloud1", To: fmt.Sprintf("cloud%d", routers),
			StartWindow: sw,
		})
		x := mustStart(scenario.Spec{
			Name: "fig11",
			Seed: 7000 + int64(si),
			Topology: scenario.TopologySpec{
				Template:  scenario.ParkingLotTemplate,
				Routers:   routers,
				CloudSize: cloud,
				CoreBW:    coreBW,
				AQM:       string(scheme),
			},
			Groups:   groups,
			Duration: dur, MeasureFrom: from, MeasureUntil: until,
			// The historical environment: PI design rules sized for one hop's
			// flow population at the paper's 60 ms RTT bound, not the derived
			// all-groups total.
			Env: &scenario.Env{CapacityPPS: coreBW / (8 * 1040), NFlows: perHop, MaxRTT: ms(60)},
		})
		x.audit(netem.AuditConfig{Scenario: "fig11 scheme=" + string(scheme)})
		x.Spawn()

		x.g.Run(from)
		w := x.open()
		x.g.Run(until)
		// Groups are the hops in core-link order, then the through traffic.
		panels := w.close()
		for i, p := range panels {
			t.AddRow(string(scheme), fmt.Sprintf("R%d-R%d", i+1, i+2),
				f2(p.avgQueue), sci(p.dropRate), f3(p.utilization), f3(stats.Jain(w.goodputs(i))))
		}
		t.AddRow(string(scheme), "through", "-", "-", "-", f3(stats.Jain(w.goodputs(len(panels)))))
		if err := x.finish(); err != nil {
			return nil, fmt.Errorf("fig11 scheme=%s %w", scheme, err)
		}
	}
	t.Notes = append(t.Notes, "through = fairness among cloud1->cloud6 flows crossing all core links")
	return t, nil
}
