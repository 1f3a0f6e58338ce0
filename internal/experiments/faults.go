package experiments

import (
	"context"
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/trafficgen"
)

// ExtLossy probes the robustness claim behind the paper's Section 2 and 4.4:
// an end-host controller must tell congestion from noise, and non-congestive
// loss is the noise the trace studies [21],[26] worried about most. Seeded
// random wire loss (0-5%) is injected on the bottleneck and PERT is compared
// with Sack/Droptail and Sack/RED-ECN: every scheme loses goodput to
// retransmissions, but a delay-based early responder should keep its queue
// advantage rather than collapse, because its congestion signal never sees
// the random losses.
func ExtLossy(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	bwMbps, flows := 30.0, 12
	if scale == Paper {
		bwMbps, flows = 150, 50
	}
	t := &Table{
		ID:     "ext-lossy",
		Title:  fmt.Sprintf("Extension: robustness to non-congestive random loss (%g Mbps, %d flows)", bwMbps, flows),
		XLabel: "loss_pct",
		Header: []string{"loss_pct", "scheme", "avg_queue_pkts", "queue_drop_rate", "retrans_overhead", "utilization", "jain"},
		Notes: []string{
			"wire loss is injected on the forward bottleneck after transmission (capacity is consumed)",
			"queue_drop_rate counts only congestive (queue) drops, not the injected wire loss",
			"all schemes pay goodput for random loss; the delay-based queue advantage should survive it"},
	}
	var cells []cell
	for i, loss := range []float64{0, 0.005, 0.01, 0.02, 0.05} {
		for _, s := range []Scheme{PERT, SackDroptail, SackRED} {
			spec := scale.dumbbell(9500+int64(i), bwMbps, flows)
			spec.Links[0].LossRate = loss
			cells = append(cells, cell{label: fmt.Sprintf("%g", loss*100), name: string(s), spec: s.on(spec)})
		}
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{cells[i].label, cells[i].name, f2(r.AvgQueue),
			sci(r.DropRate), sci(r.RetransOverhead), f3(r.Utilization), f3(r.Jain)}
	})
}

// extFlapPhases returns the per-phase schedule of the ext-flap experiment:
// full capacity, a halving, recovery, and a blackhole flap, each observed for
// one phase length L.
func extFlapPhases(bw float64, L sim.Duration) (netem.LinkSchedule, []struct {
	label string
	capac float64
}) {
	sched := netem.LinkSchedule{
		{At: 1 * L, Capacity: bw / 2},
		{At: 3 * L, Capacity: bw},
		{At: 4*L + L/5, Down: true},
		{At: 4*L + 2*L/5, Up: true},
	}
	phases := []struct {
		label string
		capac float64
	}{
		{"full", bw},
		{"half", bw / 2},
		{"half2", bw / 2},
		{"restored", bw},
		{"flap", bw}, // down for L/5 within this phase
		{"recovery", bw},
	}
	return sched, phases
}

// ExtFlap measures response to mid-run path changes: the bottleneck halves
// its capacity, restores it, then blacks out entirely for a fifth of a phase
// (a link flap — packets in the queue and on the wire are lost). The paper's
// Figure 12 covers demand changes; this covers supply changes, the "sudden
// path change" robustness concern. Each scheme's aggregate goodput per phase
// shows how fast it re-converges to the new capacity and how it survives the
// outage.
func ExtFlap(ctx context.Context, scale Scale) ([]*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	bw, flows, L := 30e6, 12, seconds(10)
	if scale == Paper {
		bw, flows, L = 150e6, 50, seconds(40)
	}
	schemes := []Scheme{PERT, SackDroptail, SackRED}
	_, phases := extFlapPhases(bw, L)

	t := &Table{
		ID:     "ext-flap",
		Title:  fmt.Sprintf("Extension: capacity changes and link flaps (%g Mbps nominal, %d flows)", bw/1e6, flows),
		XLabel: "interval",
		Header: []string{"interval", "phase", "capacity_mbps"},
	}
	for _, s := range schemes {
		t.Header = append(t.Header, fmt.Sprintf("%s_mbps", s))
	}

	// goodput[scheme][phase], blackholed[scheme]
	goodput := make([][]float64, len(schemes))
	blackholed := make([]uint64, len(schemes))
	for si, s := range schemes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gp, bh := runFlap(s, bw, flows, L, 9600+int64(si), ShardsFrom(ctx, 0))
		goodput[si], blackholed[si] = gp, bh
	}
	for pi, ph := range phases {
		row := []string{
			fmt.Sprintf("%g-%gs", (sim.Time(pi) * L).Seconds(), (sim.Time(pi+1) * L).Seconds()),
			ph.label, fmt.Sprintf("%g", ph.capac/1e6),
		}
		for si := range schemes {
			row = append(row, f2(goodput[si][pi]))
		}
		t.AddRow(row...)
	}
	for si, s := range schemes {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d packets blackholed during the flap", s, blackholed[si]))
	}
	t.Notes = append(t.Notes,
		"the flap phase takes the link down for L/5 (packets queued and in flight are lost)",
		"per-phase goodput should track the capacity column; the gap is the re-convergence cost")
	return []*Table{t}, nil
}

// runFlap runs one scheme through the flap schedule and returns aggregate
// forward goodput (Mbps) per phase plus the blackholed-packet count. With
// shards > 1 the dumbbell is cut at the bottleneck into two domains; the flap
// schedule stays legal on the boundary because it changes only capacity and
// up/down state, never delay (the partition would reject a delay change).
func runFlap(scheme Scheme, bw float64, flows int, L sim.Duration, seed int64, shards int) ([]float64, uint64) {
	sched, phases := extFlapPhases(bw, L)
	x := mustStart(scenario.Spec{
		Name: "ext-flap",
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: bw,
			Delay:     ms(20),
			Hosts:     flows,
			RTTs:      []sim.Duration{ms(60)},
			AQM:       string(scheme),
		},
		Links: []scenario.LinkRule{{Link: "forward", Schedule: sched}},
		Groups: []scenario.FlowGroupSpec{{
			Scheme: string(scheme), Count: flows, From: "left", To: "right", StartWindow: L / 5,
		}},
		Duration: sim.Time(len(phases)) * L,
		Shards:   shards,
	})
	scen := fmt.Sprintf("ext-flap scheme=%s bw=%g flows=%d", scheme, bw, flows)
	x.audit(netem.AuditConfig{Scenario: scen})
	x.Spawn()

	fleet := x.Groups[0].Flows
	out := make([]float64, len(phases))
	prev := trafficgen.GoodputSnapshot(fleet)
	for pi := range phases {
		x.g.Run(sim.Time(pi+1) * L)
		var sum float64
		for _, gp := range trafficgen.Goodputs(fleet, prev) {
			sum += gp
		}
		prev = trafficgen.GoodputSnapshot(fleet)
		out[pi] = sum * 8 / L.Seconds() / 1e6
	}
	x.mustFinish(scen)
	return out, x.Dumbbell().Forward.Impairments().Blackholed
}
