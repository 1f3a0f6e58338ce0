package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
	"pert/internal/tcp"
	"pert/internal/topo"
)

// A Section 4 cell is a scenario.Spec on the dumbbell template whose groups
// are, in this order, the forward long-term flows, the reverse long-term
// flows and the forward web sessions, and whose Links[0] is the forward
// bottleneck's rule (impairments, change schedule).
const (
	fwdGroup = iota
	revGroup
	webGroup
)

// on returns a copy of a Section 4 cell running s: every group's controller
// and the bottleneck queues are s's.
func (s Scheme) on(spec scenario.Spec) scenario.Spec {
	spec.Topology.AQM = string(s)
	spec.Groups = slices.Clone(spec.Groups)
	for i := range spec.Groups {
		spec.Groups[i].Scheme = string(s)
	}
	return spec
}

// Attachments are the Go-only parts of a dumbbell run, which a scenario
// document cannot carry.
type Attachments struct {
	// CC, when set, builds every flow's controller (long flows and web
	// transfers alike); the spec's groups then name no scheme and its
	// topology names the bottleneck AQM. This is the entry point for PERT
	// ablation studies (custom response curves, signal weights, rate limits).
	CC func() tcp.CongestionControl

	// Metrics, when set, enables the observability layer for this run:
	// periodic sampling of the bottleneck queue, per-flow sender state and
	// PERT signal into Metrics.Sink, plus a flight recorder the auditor
	// dumps on invariant violations. Nil disables everything (the sampled
	// state is read-only, so results are bit-identical either way).
	Metrics *MetricsSpec

	// Instrument, when set, is invoked with the built topology before
	// traffic starts — the hook for attaching tracers or custom samplers.
	Instrument func(d *topo.Dumbbell)
}

// DumbbellResult is one row of a Section 4 figure: the four panels the paper
// plots for every sweep point.
type DumbbellResult struct {
	Scheme      Scheme  // the forward group's scheme; "" under a custom CC
	AvgQueue    float64 // packets, time-averaged over the window
	NormQueue   float64 // AvgQueue / buffer size
	DropRate    float64 // fraction of offered packets dropped at bottleneck
	MarkRate    float64 // fraction ECN-marked (router AQM schemes)
	Utilization float64 // bottleneck utilization in [0,1]
	Jain        float64 // fairness of forward long-flow goodputs
	BufferPkts  int

	// Per-packet sojourn time through the bottleneck (queueing plus
	// transmission) over the measurement window, in seconds.
	DelayP50, DelayP95, DelayP99 float64

	// RetransOverhead is the fraction of forward long-flow segments that
	// were retransmissions (wasted capacity), cumulative over the run.
	RetransOverhead float64

	// Domains is the number of shard domains the run was actually cut into
	// (observed from the network, not copied from the spec's Shards).
	Domains int
}

// CheckCell reports whether spec has the shape of a Section 4 cell: the
// dumbbell template, the three groups in order, and traffic on the measured
// forward direction (a reverse-only run would report the ACK load as the
// forward panel). RunDumbbell panics on a spec that fails it; a caller that
// builds a cell from user input checks it, beside spec.Validate, first.
func CheckCell(spec scenario.Spec) error {
	switch {
	case spec.Topology.Template != scenario.DumbbellTemplate || len(spec.Groups) != 3:
		return errors.New("experiments: a Section 4 cell is a dumbbell with three groups: forward, reverse, web")
	case spec.Groups[fwdGroup].Count <= 0 && spec.Groups[webGroup].Count <= 0:
		return errors.New("experiments: scenario has no traffic on the measured forward direction")
	}
	return nil
}

// shardBar names what keeps a dumbbell run on one domain whatever
// spec.Shards asks, or "" when the bottleneck cut is sound: metrics and an
// Instrument hook attach observers that read across the cut, a custom
// controller cannot be verified shard-safe, and a delay-changing schedule
// would move the boundary's lookahead, which is fixed at partition time.
func (at Attachments) shardBar(spec scenario.Spec) string {
	switch {
	case at.Metrics != nil:
		return "metrics streaming"
	case at.Instrument != nil:
		return "an Instrument hook"
	case at.CC != nil:
		return "a custom controller"
	case slices.ContainsFunc(spec.Links, func(r scenario.LinkRule) bool { return r.Schedule.HasDelayChange() }):
		return "a delay-changing schedule"
	}
	return ""
}

// sizeDumbbell writes the Section 4 host and buffer rule into the cell where
// it leaves them open: one host pair per flow or session, clamped to
// [1, 256] (hosts are shared round-robin, so a 1000-session point does not
// build 2000 nodes), and a buffer of one BDP at the mean RTT with a floor of
// twice the forward flow count. The compiler's own derivations differ, and
// the committed tables depend on this rule; written out, the spec builds the
// same network under RunScenario.
func sizeDumbbell(spec *scenario.Spec) {
	t := &spec.Topology
	if len(t.RTTs) == 0 {
		t.RTTs = []sim.Duration{ms(60)} // the compiler's default, made explicit
	}
	if t.Hosts == 0 {
		for _, g := range spec.Groups {
			t.Hosts += g.Count
		}
		t.Hosts = min(max(t.Hosts, 1), 256)
	}
	if t.BufferPkts == 0 {
		var sum sim.Duration
		for _, r := range t.RTTs {
			sum += r
		}
		t.BufferPkts = max(topo.BDPPackets(t.Bandwidth, sum/sim.Duration(len(t.RTTs)), 1040), 2*spec.Groups[fwdGroup].Count)
	}
}

// RunDumbbell runs one Section 4 cell and returns the row the paper plots
// for it. Construction order is a bit-identity contract with the committed
// tables: compile (topology, impairments, schedule) and partition, then
// observers in the historical order (metrics registry, auditor, Instrument
// hook, delay monitor), then traffic. A run that at bars from the bottleneck
// cut (shardBar) is a group of one whatever spec.Shards asks. It panics on
// a spec that fails CheckCell or that the compiler rejects.
func RunDumbbell(spec scenario.Spec, at Attachments) DumbbellResult {
	if err := CheckCell(spec); err != nil {
		panic(err.Error())
	}
	sizeDumbbell(&spec)
	if at.shardBar(spec) != "" {
		spec.Shards = 0
	}
	x := mustStart(spec)
	d := x.Dumbbell()
	g := spec.Groups
	scenarioLine := fmt.Sprintf("dumbbell scheme=%s bw=%g flows=%d rev=%d web=%d links=%+v",
		cmp.Or(g[fwdGroup].Scheme, "custom"), spec.Topology.Bandwidth,
		g[fwdGroup].Count, g[revGroup].Count, g[webGroup].Count, spec.Links)

	// The observability registry (nil when at.Metrics is nil) is built
	// before the auditor so a violation's repro bundle can include the
	// flight-recorder dump.
	reg := at.Metrics.newRegistry(x.Eng, scenarioLine)

	// The bottleneck's trailing trace is kept for the repro bundle; the
	// reverse bottleneck is bounded but not traced.
	cfg := netem.AuditConfig{Scenario: scenarioLine}
	if fl := reg.Flight(); fl != nil {
		cfg.MetricsDump = fl.Dump
	}
	x.audit(cfg, d.Reverse)

	if at.Instrument != nil {
		at.Instrument(d)
	}
	// The monitor gets its own RNG: instrumentation must never perturb the
	// simulation's random stream (results stay identical with or without).
	delayMon := stats.MonitorDelay(d.Forward, spec.MeasureFrom, rand.New(rand.NewSource(spec.Seed^0x5eed)))

	// One shared connection config for both long-flow directions: the RTT
	// observer must chain onto a single histogram, as the hand-wired
	// scenario did.
	conn := x.Groups[fwdGroup].Conn
	observeRTT(reg, &conn)
	x.Groups[fwdGroup].Conn, x.Groups[revGroup].Conn = conn, conn
	if at.CC != nil {
		for _, grp := range x.Groups {
			grp.CC = at.CC
		}
	}
	x.Spawn()
	fwd := x.Groups[fwdGroup].Flows
	at.Metrics.instrumentDumbbell(reg, d, fwd)

	// Warm up, then measure.
	x.g.Run(spec.MeasureFrom)
	w := x.open()
	x.g.Run(cmp.Or(spec.MeasureUntil, spec.Duration))
	var sent, retrans uint64
	for _, f := range fwd {
		sent += f.Conn.Stats.SegsSent
		retrans += f.Conn.Stats.Retransmits
	}
	var overhead float64
	if sent > 0 {
		overhead = float64(retrans) / float64(sent)
	}
	p50, p95, p99 := delayMon.P50P95P99()
	p := w.close()[0]
	res := DumbbellResult{
		Scheme:          Scheme(g[fwdGroup].Scheme),
		RetransOverhead: overhead,
		DelayP50:        p50,
		DelayP95:        p95,
		DelayP99:        p99,
		AvgQueue:        p.avgQueue,
		NormQueue:       p.avgQueue / float64(d.BufferPkts),
		DropRate:        p.dropRate,
		MarkRate:        p.markRate,
		Utilization:     p.utilization,
		Jain:            stats.Jain(w.goodputs(fwdGroup)),
		BufferPkts:      d.BufferPkts,
		Domains:         x.Net.Domains(),
	}
	x.g.Run(spec.Duration)
	x.mustFinish(scenarioLine)
	// Close flushes the metrics sink; write errors are sticky on the
	// caller-owned writer, so the caller's own flush/close reports them.
	_ = reg.Close()
	return res
}
