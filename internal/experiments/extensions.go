package experiments

import (
	"context"
	"fmt"
	"math"

	"pert/internal/fluid"
	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
)

// ExtAQM is an extension experiment beyond the paper: the full AQM
// cross-comparison. Every end-host emulation (PERT/RED, PERT/PI, PERT/REM,
// all over plain DropTail) against every router AQM from the paper's
// citation list (Adaptive RED, PI, REM, AVQ, all with ECN), on the standard
// dumbbell workload. The paper's thesis predicts the end-host column should
// track its router counterpart.
func ExtAQM(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	bwMbps, flows, webs := 30.0, 12, 25
	if scale == Paper {
		bwMbps, flows, webs = 150, 50, 100
	}
	t := &Table{
		ID:     "ext-aqm",
		Title:  fmt.Sprintf("Extension: end-host AQM emulations vs router AQMs (%g Mbps, %d flows + %d web)", bwMbps, flows, webs),
		Header: []string{"scheme", "kind", "avg_queue_pkts", "delay_p99_ms", "drop_rate", "mark_rate", "utilization", "jain"},
		Notes:  []string{"extension beyond the paper: REM and AVQ complete its cited AQM list"},
	}
	rows := []struct {
		s    Scheme
		kind string
	}{
		{PERT, "end-host (RED emu)"},
		{SackRED, "router RED"},
		{PERTPI, "end-host (PI emu)"},
		{SackPI, "router PI"},
		{PERTREM, "end-host (REM emu)"},
		{SackREM, "router REM"},
		{SackAVQ, "router AVQ"},
		{SackDroptail, "no AQM"},
	}
	cells := make([]cell, len(rows))
	for i, row := range rows {
		spec := scale.dumbbell(9000+int64(i), bwMbps, flows)
		spec.Groups[webGroup].Count = webs
		cells[i] = cell{name: string(row.s), spec: row.s.on(spec)}
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{cells[i].name, rows[i].kind, f2(r.AvgQueue), f2(r.DelayP99 * 1000),
			sci(r.DropRate), sci(r.MarkRate), f3(r.Utilization), f3(r.Jain)}
	})
}

// ExtJitter probes the robustness question behind the paper's Section 2:
// the trace studies [21],[26] argued delay noise makes end-host prediction
// unreliable. Uniform per-packet delay jitter is injected on every access
// link and PERT is compared with Sack/Droptail across jitter magnitudes — if
// the srtt_0.99 smoothing does its job, PERT's queue/loss advantage must
// survive noise comparable to its own thresholds (5-10 ms).
func ExtJitter(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	bwMbps, flows := 30.0, 12
	if scale == Paper {
		bwMbps, flows = 150, 50
	}
	t := &Table{
		ID:     "ext-jitter",
		Title:  fmt.Sprintf("Extension: robustness to access-link delay jitter (%g Mbps, %d flows)", bwMbps, flows),
		Header: []string{"jitter_ms", "scheme", "avg_queue_pkts", "drop_rate", "utilization", "jain"},
		Notes: []string{
			"jitter is uniform per packet on all four access links of each path (order-preserving)",
			"fixed 5/10 ms thresholds starve once noise reaches their scale — the [21]/[26] critique;",
			"thresholds above the noise floor restore PERT's behaviour at the cost of a longer queue"},
	}
	// The remedy the paper's future work points at: thresholds scaled above
	// the noise floor (here 4x: 20/40 ms).
	wide := DefaultVariant("wide-thresh")
	wide.Curve.Tmin, wide.Curve.Tmax = ms(20), ms(40)
	var cells []cell
	for i, jMs := range []float64{0, 2, 5, 10} {
		spec := scale.dumbbell(9200+int64(i), bwMbps, flows)
		spec.Topology.AccessJitter = ms(jMs)
		label := fmt.Sprintf("%g", jMs)
		cells = append(cells,
			cell{label: label, name: string(PERT), spec: PERT.on(spec)},
			cell{label: label, name: string(SackDroptail), spec: SackDroptail.on(spec)},
			cell{label: label, name: "PERT[20/40ms]", at: Attachments{CC: wide.CC()}, spec: spec})
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{cells[i].label, cells[i].name, f2(r.AvgQueue),
			sci(r.DropRate), f3(r.Utilization), f3(r.Jain)}
	})
}

// ExtDelayCC compares the full lineage of delay-based congestion avoidance
// the paper's Section 2 surveys — CARD (1989), DUAL (1992), Vegas (1994) —
// against PERT, all as complete congestion controllers over the same
// DropTail bottleneck. The paper evaluates these schemes only as predictors
// (Figure 3); this extension closes the loop and shows how prediction
// quality translates into queue/loss/fairness behaviour.
func ExtDelayCC(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	bwMbps, flows := 30.0, 12
	if scale == Paper {
		bwMbps, flows = 150, 50
	}
	t := &Table{
		ID:     "ext-delaycc",
		Title:  fmt.Sprintf("Extension: delay-based congestion-avoidance lineage (%g Mbps, %d flows)", bwMbps, flows),
		Header: []string{"scheme", "year", "avg_queue_pkts", "delay_p99_ms", "drop_rate", "utilization", "jain"},
		Notes:  []string{"all schemes over plain DropTail; homogeneous populations (no co-existence)"},
	}
	rows := []struct {
		name string
		year string
		cc   func() tcp.CongestionControl
	}{
		{"CARD", "1989", func() tcp.CongestionControl { return tcp.NewCARD() }},
		{"DUAL", "1992", func() tcp.CongestionControl { return tcp.NewDUAL() }},
		{"Vegas", "1994", func() tcp.CongestionControl { return tcp.NewVegas() }},
		{"PERT", "2007", func() tcp.CongestionControl { return tcp.NewPERTRed() }},
		{"Sack (loss-based)", "-", func() tcp.CongestionControl { return tcp.Reno{} }},
	}
	cells := make([]cell, len(rows))
	for i, row := range rows {
		cells[i] = cell{name: row.name, at: Attachments{CC: row.cc}, spec: scale.dumbbell(9300+int64(i), bwMbps, flows)}
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{rows[i].name, rows[i].year, f2(r.AvgQueue), f2(r.DelayP99 * 1000),
			sci(r.DropRate), f3(r.Utilization), f3(r.Jain)}
	})
}

// ExtHighSpeed tests the paper's footnote 1: PERT's early response is argued
// to compose with any loss-based probing, including aggressive high-speed
// variants. On a large-BDP dumbbell, HighSpeed TCP (RFC 3649) runs bare and
// with PERT layered on top of its growth engine.
func ExtHighSpeed(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	mbps := 100.0
	if scale == Paper {
		mbps = 622 // OC-12, the classic HSTCP setting
	}
	t := &Table{
		ID:     "ext-highspeed",
		Title:  fmt.Sprintf("Extension: PERT over aggressive probing (footnote 1; %g Mbps x 100ms)", mbps),
		Header: []string{"scheme", "avg_queue_pkts", "delay_p99_ms", "drop_rate", "utilization", "jain"},
		Notes:  []string{"footnote 1: the early-response argument holds for any loss-based probing"},
	}
	cells := []cell{
		{name: "HSTCP", at: Attachments{CC: func() tcp.CongestionControl { return tcp.NewHSTCP() }}},
		{name: "PERT over HSTCP", at: Attachments{CC: func() tcp.CongestionControl { return &tcp.PERT{Base: tcp.NewHSTCP()} }}},
		{name: "Reno", at: Attachments{CC: func() tcp.CongestionControl { return tcp.Reno{} }}},
		{name: "PERT over Reno", at: Attachments{CC: func() tcp.CongestionControl { return tcp.NewPERTRed() }}},
	}
	for i := range cells {
		cells[i].spec = scale.dumbbell(9400+int64(i), mbps, 4)
		cells[i].spec.Topology.RTTs = []sim.Duration{ms(100)}
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{cells[i].name, f2(r.AvgQueue), f2(r.DelayP99 * 1000), sci(r.DropRate),
			f3(r.Utilization), f3(r.Jain)}
	})
}

// ExtValidation cross-validates the packet-level simulator against the
// Section 5 fluid model: N identical PERT flows on a dumbbell sized so the
// fluid equilibrium (9) predicts the stationary window W* = RC/N and the
// queueing delay Tq* = Tmin + p*/L; the packet simulation's time-averaged
// cwnd and srtt-derived queueing delay are compared against the prediction.
func ExtValidation(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ext-validation",
		Title:  "Extension: packet-level simulation vs fluid-model equilibrium (eq. 9)",
		Header: []string{"flows", "W*_fluid", "W_sim", "W_err_%", "Tq*_fluid_ms", "Tq_sim_ms"},
	}
	dur := seconds(60)
	measureFrom := seconds(20)
	if scale == Paper {
		dur, measureFrom = seconds(300), seconds(100)
	}
	for _, n := range []int{4, 8, 16} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bw := 20e6
		rtt := 60 * sim.Millisecond
		pps := bw / (8 * 1040)

		scen := fmt.Sprintf("ext-validation flows=%d", n)
		x, err := start(scenario.Spec{
			Name: "ext-validation",
			Seed: 9100 + int64(n),
			Topology: scenario.TopologySpec{
				Template:   scenario.DumbbellTemplate,
				Bandwidth:  bw,
				Hosts:      n,
				RTTs:       []sim.Duration{rtt},
				BufferPkts: 4 * topo.BDPPackets(bw, rtt, 1040), // deep buffer: losses negligible
			},
			Groups: []scenario.FlowGroupSpec{
				{Scheme: string(PERT), Count: n, From: "left", To: "right", StartWindow: seconds(2)},
			},
			Duration: dur, MeasureFrom: measureFrom,
		})
		if err != nil {
			return nil, err
		}
		x.audit(netem.AuditConfig{Scenario: scen})
		x.Spawn()
		flows, forward := x.Groups[0].Flows, x.Dumbbell().Forward

		x.g.Run(measureFrom)
		var wSum, tqSum float64
		var samples int
		x.Eng.Every(x.Eng.Now(), 50*sim.Millisecond, func(sim.Time) {
			for _, f := range flows {
				wSum += f.Conn.Cwnd()
			}
			tqSum += float64(forward.Queue.Len()) / pps // seconds of queueing
			samples++
		})
		x.g.Run(dur)
		if err := x.finish(); err != nil {
			return nil, fmt.Errorf("%s %w", scen, err)
		}

		wSim := wSum / float64(samples) / float64(n)
		tqSim := tqSum / float64(samples)

		p := fluid.PERTParams{
			C: pps, N: float64(n), R: rtt.Seconds() + tqSim,
			Tmin: 0.005, Tmax: 0.010, Pmax: 0.05, Alpha: 0.99,
			Delta: float64(n) / pps,
		}
		wStar, _, tqStar := p.Equilibrium()
		errPct := 100 * math.Abs(wSim-wStar) / wStar
		t.AddRow(fmt.Sprint(n), f2(wStar), f2(wSim), f2(errPct),
			f2(tqStar*1000), f2(tqSim*1000))
	}
	t.Notes = append(t.Notes,
		"W* = RC/N with R = propagation + measured queueing delay",
		"Tq* = Tmin + p*/L from the linear response region (eq. 9)")
	return t, nil
}
