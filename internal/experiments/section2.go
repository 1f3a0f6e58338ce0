package experiments

import (
	"context"
	"fmt"

	"pert/internal/core"
	"pert/internal/netem"
	"pert/internal/predictors"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
)

// section2Case is one of the paper's six trace-collection loads: 50 or 100
// long-term flows in both directions crossed with 100, 500 or 1000 web
// sessions over a 100 Mbps / 20 ms bottleneck with a 750-packet queue.
type section2Case struct {
	Name      string
	LongFlows int
	Web       int
}

// section2Cases returns case1..case6 at the given scale. Quick scale halves
// the link, queue, and loads together, preserving per-flow shares and the
// queue's drain time; keeping the flow count high (25-50) preserves the
// paper's key property that the bottleneck can lose packets without the
// tagged flow being among the victims.
func section2Cases(scale Scale) (cases []section2Case, bandwidth float64, buffer int, dur, warm sim.Duration) {
	if scale == Paper {
		return []section2Case{
			{"case1", 50, 100}, {"case2", 50, 500}, {"case3", 50, 1000},
			{"case4", 100, 100}, {"case5", 100, 500}, {"case6", 100, 1000},
		}, 100e6, 750, seconds(1000), seconds(20)
	}
	return []section2Case{
		{"case1", 25, 50}, {"case2", 25, 250}, {"case3", 25, 500},
		{"case4", 50, 50}, {"case5", 50, 250}, {"case6", 50, 500},
	}, 50e6, 375, seconds(150), seconds(10)
}

// runSection2 is the paper's Section 2 study: the six trace-collection
// cases are simulated once, in parallel, and Figures 2, 3 and 4 and the
// ext-threshold margin sweep are extracted from the same traces.
func runSection2(ctx context.Context, scale Scale) ([]*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	cases, bw, buf, dur, warm := section2Cases(scale)
	traces := make([]*predictors.Trace, len(cases))
	if err := forEach(ctx, len(cases), func(i int) {
		traces[i] = collectTrace(cases[i], 100+int64(i), bw, buf, dur, warm)
	}); err != nil {
		return nil, err
	}
	return []*Table{fig2(cases, traces), fig3(buf, traces), fig4(traces), extThreshold(traces)}, nil
}

// collectTrace simulates one case on the Section 2.2 topology with standard
// TCP everywhere and a tagged 60 ms flow, and returns the tagged flow's
// trace, from which runSection2 extracts every Section 2 table.
func collectTrace(c section2Case, seed int64, bandwidth float64, buffer int, dur, warm sim.Duration) *predictors.Trace {
	sack := string(SackDroptail)
	// The tagged flow is group 0: alone on the first host pair (whose RTT is
	// 60 ms as in the paper), started at t=0 with no window, so it keeps flow
	// ID 1 and draws nothing. Everything else shares the remaining hosts.
	//
	// Long-term flows run in both directions (the paper's load description);
	// the reverse direction carries half the long flows plus half the web
	// sessions, making reverse-path delay episodic rather than constant —
	// the round-trip signal then sees congestion the forward queue does not
	// have, the paper's source of prediction uncertainty.
	const fwd, rev = "left[1:32]", "right[1:32]"
	x := mustStart(scenario.Spec{
		Name: "section2",
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: bandwidth,
			Delay:     ms(20),
			Hosts:     32,
			// Flows have different RTTs (varying access delays).
			RTTs:       []sim.Duration{ms(60), ms(40), ms(80), ms(100), ms(52), ms(68), ms(90), ms(40)},
			BufferPkts: buffer,
			AQM:        sack,
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "tagged", Scheme: sack, Count: 1, From: "left[0:1]", To: "right[0:1]"},
			{Scheme: sack, Count: c.LongFlows - 1, From: fwd, To: rev, StartWindow: warm / 2},
			{Scheme: sack, Count: c.LongFlows / 2, From: rev, To: fwd, StartWindow: warm / 2},
			{Scheme: sack, Count: c.Web, From: fwd, To: rev, Traffic: scenario.Web, StartWindow: warm},
			{Scheme: sack, Count: c.Web / 2, From: rev, To: fwd, Traffic: scenario.Web, StartWindow: warm},
		},
		Duration: dur,
	})
	scen := fmt.Sprintf("section2 %s long=%d web=%d", c.Name, c.LongFlows, c.Web)
	x.audit(netem.AuditConfig{Scenario: scen})
	collector := predictors.NewCollector(x.Dumbbell().Forward, buffer, warm)

	// ns-2's Agent/TCP defaults to a 20-packet receiver window; the Section
	// 2 traces inherit it. The cap matters: capped long flows cannot
	// saturate the link alone, so congestion arrives in web-driven
	// episodes with loss-free lulls between them — the regime in which
	// smoothed-signal false positives occur at all.
	for _, g := range x.Groups {
		g.Conn.MaxCwnd = 20
	}
	x.Groups[0].Conn = collector.Config(x.Groups[0].Conn)
	x.Spawn()
	collector.Bind(x.Groups[0].Flows[0].Conn)

	x.g.Run(dur)
	x.mustFinish(scen)
	return &collector.Trace
}

// lossCoalesceGap merges queue-drop bursts into single congestion episodes on
// the scale of the tagged flow's RTT.
const lossCoalesceGap = 60 * sim.Millisecond

// signal is one of the per-ACK RTT signals the threshold predictors read: a
// name and a fresh smoother per evaluation (smoothers are stateful; nil is
// the instantaneous RTT).
type signal struct {
	name     string
	smoother func() predictors.Smoother
}

var (
	instRTT = signal{"inst-rtt", func() predictors.Smoother { return nil }}
	ewma875 = signal{"ewma-0.875", func() predictors.Smoother { return &predictors.EWMASmoother{EWMA: core.EWMA{W: 0.875}} }}
	ewma99  = signal{"ewma-0.99", func() predictors.Smoother { return &predictors.EWMASmoother{EWMA: core.EWMA{W: 0.99}} }}
)

// meanVsQueueLosses evaluates a fresh predictor from mk on every trace
// against its coalesced queue-level losses and returns the mean efficiency,
// false-positive and false-negative fractions as table cells.
func meanVsQueueLosses(traces []*predictors.Trace, mk func() predictors.Predictor) []string {
	var e, fp, fn float64
	for _, tr := range traces {
		res := predictors.Evaluate(mk(), tr, predictors.CoalesceLosses(tr.QueueLosses, lossCoalesceGap))
		e += res.Efficiency()
		fp += res.FalsePositives()
		fn += res.FalseNegatives()
	}
	n := float64(len(traces))
	return []string{f3(e / n), f3(fp / n), f3(fn / n)}
}

// fig2 reproduces "fraction of transitions from high-RTT to loss when losses
// are measured within a flow vs at the bottleneck queue": the fixed 65 ms
// threshold predictor evaluated against both loss series.
func fig2(cases []section2Case, traces []*predictors.Trace) *Table {
	t := &Table{
		ID:     "fig2",
		Title:  "High-RTT -> loss transition fraction: flow-level vs queue-level losses (65 ms threshold)",
		Header: []string{"case", "long_flows", "web", "frac_flow_losses", "frac_queue_losses", "samples"},
	}
	for i, c := range cases {
		tr := traces[i]
		// The paper's 65 ms threshold is its tagged flow's propagation
		// delay (60 ms) plus 5 ms; we apply the same P+5ms rule with P
		// estimated as the flow's minimum observed RTT, which also absorbs
		// any standing reverse-path delay.
		flow := predictors.Evaluate(predictors.NewRelativeThreshold("inst-rtt", ms(5), nil), tr,
			predictors.CoalesceLosses(tr.FlowLosses, lossCoalesceGap))
		queueL := predictors.Evaluate(predictors.NewRelativeThreshold("inst-rtt", ms(5), nil), tr,
			predictors.CoalesceLosses(tr.QueueLosses, lossCoalesceGap))
		t.AddRow(c.Name, fmt.Sprint(c.LongFlows), fmt.Sprint(c.Web),
			f3(flow.Efficiency()), f3(queueL.Efficiency()), fmt.Sprint(len(tr.Samples)))
	}
	t.Notes = append(t.Notes, "threshold = P+5ms (the paper's 65 ms for its 60 ms path)",
		"paper finding: queue-level fraction is significantly higher than flow-level")
	return t
}

// fig3 reproduces "prediction efficiency, false positives and false
// negatives for different predictors", evaluated against queue-level losses
// and averaged over the six cases.
func fig3(buf int, traces []*predictors.Trace) *Table {
	t := &Table{
		ID:     "fig3",
		Title:  "Predictor comparison vs queue-level losses (mean over the six cases)",
		Header: []string{"predictor", "efficiency", "false_pos", "false_neg"},
	}
	for idx, p := range predictors.Suite(ms(5), buf) {
		// Fresh predictor instances per trace: they are stateful.
		mk := func() predictors.Predictor { return predictors.Suite(ms(5), buf)[idx] }
		t.AddRow(append([]string{p.Name()}, meanVsQueueLosses(traces, mk)...)...)
	}
	t.Notes = append(t.Notes, "paper finding: ewma-0.99 achieves high efficiency with low FP and FN; Vegas best among prior schemes")
	return t
}

// fig4 reproduces the "probability distribution of normalized queue length
// when false positives occur": for each signal in the per-ACK family
// (instantaneous, EWMA 7/8, EWMA 0.99) the bottleneck queue occupancy at
// every false-positive instant is histogrammed. The heavier the smoothing,
// the fewer false positives exist at all (the paper measured only 0.7-1.5%
// for srtt_0.99; at reduced scale this rounds to zero events), so the
// distribution is reported across the family.
func fig4(traces []*predictors.Trace) *Table {
	signals := []signal{instRTT, ewma875, ewma99}
	hists := make([]*stats.Histogram, len(signals))
	for i := range hists {
		hists[i] = stats.NewHistogram(1, 10)
	}
	for _, tr := range traces {
		losses := predictors.CoalesceLosses(tr.QueueLosses, lossCoalesceGap)
		for si, sig := range signals {
			p := predictors.NewRelativeThreshold(sig.name, ms(5), sig.smoother())
			res := predictors.Evaluate(p, tr, losses)
			for _, f := range res.FalsePositiveQueueFracs {
				hists[si].Add(f)
			}
		}
	}
	t := &Table{
		ID:     "fig4",
		Title:  "PDF of normalized queue length at false positives (all six cases)",
		Header: []string{"queue_fraction"},
	}
	for _, sig := range signals {
		t.Header = append(t.Header, "pdf_"+sig.name)
	}
	for b := 0; b < 10; b++ {
		row := []string{f2(hists[0].BucketCenter(b))}
		for si := range signals {
			row = append(row, f3(hists[si].PDF()[b]))
		}
		t.AddRow(row...)
	}
	for si, sig := range signals {
		t.Notes = append(t.Notes, fmt.Sprintf("%s false positives observed: %d", sig.name, hists[si].Total()))
	}
	t.Notes = append(t.Notes, "paper finding: false positives concentrate at low queue occupancy (< 50%)")
	return t
}

// extThreshold sweeps the detection margin of the per-ACK signal family over
// the Section 2 traces, charting the aggressiveness tradeoff Figure 1's
// state machine frames: small margins predict early but cry wolf (transition
// 5), large margins miss losses entirely (transition 4). This is the
// operating-point analysis behind the paper's choice of P+5 ms.
func extThreshold(traces []*predictors.Trace) *Table {
	t := &Table{
		ID:     "ext-threshold",
		Title:  "Extension: detection-margin sweep for the per-ACK signal family (mean over six cases)",
		Header: []string{"margin_ms", "signal", "efficiency", "false_pos", "false_neg"},
	}
	for _, marginMs := range []float64{1, 2, 5, 10, 20} {
		for _, sig := range []signal{instRTT, ewma99} {
			mk := func() predictors.Predictor {
				return predictors.NewRelativeThreshold(sig.name, ms(marginMs), sig.smoother())
			}
			t.AddRow(append([]string{fmt.Sprintf("%g", marginMs), sig.name}, meanVsQueueLosses(traces, mk)...)...)
		}
	}
	t.Notes = append(t.Notes,
		"in loss-rich traces a small margin keeps the detector armed through every loss episode;",
		"pushing the margin past the typical queue excursion both raises false positives",
		"(episodes that peak below the margin end unconfirmed) and explodes false negatives",
		"the smoothed signal dominates the instantaneous one at every operating point (Fig. 3's finding)")
	return t
}

// Fig5 tabulates the PERT response curve (an analytic figure in the paper;
// both scales produce the same table).
func Fig5(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig5",
		Title:  "PERT probabilistic response curve (Tmin=5ms, Tmax=10ms, pmax=0.05, gentle)",
		XLabel: "queueing_delay_ms",
		Header: []string{"queueing_delay_ms", "response_prob"},
		Units:  map[string]string{"queueing_delay_ms": "ms", "response_prob": "probability"},
	}
	curve := core.DefaultCurve()
	for _, q := range []float64{0, 2.5, 5, 6, 7.5, 9, 10, 12.5, 15, 17.5, 20, 25} {
		t.AddRow(f2(q), f3(curve.Prob(ms(q))))
	}
	return t, nil
}
