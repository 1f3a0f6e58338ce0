package experiments

import (
	"fmt"
	"math/rand"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
	"pert/internal/tcp"
	"pert/internal/topo"
)

// DumbbellSpec describes one single-bottleneck scenario (the Section 4
// workhorse): long-term flows in both directions plus optional web sessions,
// measured over a steady-state window.
type DumbbellSpec struct {
	Seed int64

	Bandwidth float64        // bottleneck, bits/s
	RTTs      []sim.Duration // end-to-end propagation RTTs (round-robin)

	Flows        int // forward long-term flows
	ReverseFlows int // reverse long-term flows
	WebSessions  int // forward web sessions

	BufferPkts int // 0 = paper rule (BDP, floor 2*flows)

	Duration     sim.Duration // total simulated time
	MeasureFrom  sim.Duration // start of the measurement window
	MeasureUntil sim.Duration // end of the measurement window
	StartWindow  sim.Duration // flow starts uniform in [0, StartWindow)

	TargetDelay sim.Duration // PI schemes' delay reference (default 3 ms)

	// AccessJitter adds per-packet delay noise on access links (see
	// topo.DumbbellConfig.AccessJitter); the ext-jitter experiment uses it
	// to probe predictor robustness.
	AccessJitter sim.Duration

	// Fault injection on the forward bottleneck link (internal/netem
	// impairments). The impairment draws from its own RNG seeded by Seed,
	// so zero rates leave the run bit-identical to an unimpaired one.
	LossRate     float64      // non-congestive wire-loss probability
	DupRate      float64      // duplication probability
	ReorderRate  float64      // reordering probability
	ReorderExtra sim.Duration // extra holding delay bound for reordered packets

	// Schedule drives mid-run capacity/delay changes and link flaps on the
	// forward bottleneck (down links blackhole traffic).
	Schedule netem.LinkSchedule

	// Instrument, when set, is invoked with the built topology before
	// traffic starts — the hook for attaching tracers or custom samplers.
	Instrument func(d *topo.Dumbbell)

	// Metrics, when set, enables the observability layer for this run:
	// periodic sampling of the bottleneck queue, per-flow sender state and
	// PERT signal into Metrics.Sink, plus a flight recorder the auditor
	// dumps on invariant violations. Nil disables everything (the sampled
	// state is read-only, so results are bit-identical either way).
	Metrics *MetricsSpec

	// Shards > 1 asks for the dumbbell to be cut at the bottleneck into two
	// domains (its only useful cut, so any larger request clamps). The cut is
	// made only where it is sound — see shardBar; a barred run is a group of
	// one, and DumbbellResult.Domains reports which it was so tables can say
	// so. 0 and 1 are the group of one.
	Shards int
}

// DumbbellResult is one row of a Section 4 figure: the four panels the paper
// plots for every sweep point.
type DumbbellResult struct {
	Scheme      Scheme
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
	// (observed from the network, not copied from DumbbellSpec.Shards).
	Domains int
}

// shardBar names what keeps this spec on one domain whatever Shards asks, or
// "" when the bottleneck cut is sound: Metrics and Instrument attach observers
// that read across the cut, a custom controller cannot be verified shard-safe,
// and a delay-changing schedule would move the boundary's lookahead, which is
// fixed at partition time.
func (spec DumbbellSpec) shardBar(scheme string) string {
	switch {
	case spec.Metrics != nil:
		return "metrics streaming"
	case spec.Instrument != nil:
		return "an Instrument hook"
	case !scenario.Known(scheme):
		return "a custom controller"
	case spec.Schedule.HasDelayChange():
		return "a delay-changing schedule"
	}
	return ""
}

// customCC is the scheme label of a RunDumbbellWith run: not a registered
// name, which is what bars it from the bottleneck cut.
const customCC = "custom-cc"

// RunDumbbell executes the scenario under one scheme and returns the
// measured row.
func RunDumbbell(spec DumbbellSpec, scheme Scheme) DumbbellResult {
	res := runDumbbell(spec, string(scheme), nil)
	res.Scheme = scheme
	return res
}

// RunDumbbellWith executes the scenario with an explicit congestion-control
// factory over DropTail bottlenecks — the entry point for PERT ablation
// studies (custom response curves, signal weights, rate limits).
func RunDumbbellWith(spec DumbbellSpec, cc func() tcp.CongestionControl) DumbbellResult {
	return runDumbbell(spec, customCC, cc)
}

// Validate reports whether the spec can run under scheme. DumbbellSpec has no
// rules of its own beyond what its runner indexes and measures (a first RTT,
// an explicit window end, traffic on the measured forward direction): the
// rest is scenario.Spec.Validate on the translated spec, so the flag path,
// the flat v1 file schema and schema v2 share one rule set.
func (spec DumbbellSpec) Validate(scheme Scheme) error {
	switch {
	case len(spec.RTTs) == 0:
		return fmt.Errorf("experiments: scenario needs at least one rtt")
	case spec.MeasureUntil == 0:
		return fmt.Errorf("experiments: measure_until must be set (0 is not an alias for the duration here)")
	case spec.Flows <= 0 && spec.WebSessions <= 0:
		return fmt.Errorf("experiments: scenario has no traffic on the measured forward direction")
	}
	return spec.scenarioSpec(string(scheme), false).Validate()
}

// scenarioSpec translates the legacy flat DumbbellSpec into a declarative
// scenario.Spec. Buffer size and host count are resolved here (not left to
// the compiler's derivation rules) because the historical formulas differ:
// the buffer floor is twice the *forward* flow count and hosts count web
// sessions, both of which the committed tables depend on.
//
// Naming the scheme lets the compiler resolve queue, controllers and ECN from
// the registry; the environment it derives from the spec (capacity, fwd+rev
// flow count, largest RTT, target delay) is the historical one. A custom
// controller runs over DropTail and its groups carry no scheme.
func (spec DumbbellSpec) scenarioSpec(scheme string, custom bool) scenario.Spec {
	if spec.BufferPkts == 0 {
		// The paper's rule: buffer = BDP with a floor of twice the number
		// of flows.
		var sum sim.Duration
		for _, r := range spec.RTTs {
			sum += r
		}
		mean := sum / sim.Duration(len(spec.RTTs))
		spec.BufferPkts = topo.BDPPackets(spec.Bandwidth, mean, 1040)
		if min := 2 * spec.Flows; spec.BufferPkts < min {
			spec.BufferPkts = min
		}
	}
	hosts := spec.Flows + spec.ReverseFlows + spec.WebSessions
	if hosts < 1 {
		hosts = 1
	}
	// Hosts are shared round-robin; cap the node count so huge sweeps
	// (1000 web sessions) do not build 2000+ nodes needlessly.
	if hosts > 256 {
		hosts = 256
	}
	aqm, groupScheme := scheme, scheme
	if custom {
		aqm, groupScheme = string(SackDroptail), ""
	}
	sspec := scenario.Spec{
		Seed: spec.Seed,
		Topology: scenario.TopologySpec{
			Template:     scenario.DumbbellTemplate,
			Bandwidth:    spec.Bandwidth,
			Delay:        spec.RTTs[0] / 3,
			Hosts:        hosts,
			RTTs:         spec.RTTs,
			BufferPkts:   spec.BufferPkts,
			AccessJitter: spec.AccessJitter,
			AQM:          aqm,
		},
		Links: []scenario.LinkRule{{
			Link:         "forward",
			LossRate:     spec.LossRate,
			DupRate:      spec.DupRate,
			ReorderRate:  spec.ReorderRate,
			ReorderExtra: spec.ReorderExtra,
			Schedule:     spec.Schedule,
		}},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Scheme: groupScheme, Count: spec.Flows, From: "left", To: "right", StartWindow: spec.StartWindow},
			{Label: "rev", Scheme: groupScheme, Count: spec.ReverseFlows, From: "right", To: "left", StartWindow: spec.StartWindow},
			{Label: "web", Scheme: groupScheme, Count: spec.WebSessions, From: "left", To: "right", Traffic: scenario.Web, StartWindow: spec.StartWindow},
		},
		Duration:     spec.Duration,
		MeasureFrom:  spec.MeasureFrom,
		MeasureUntil: spec.MeasureUntil,
		TargetDelay:  spec.TargetDelay,
	}
	if spec.shardBar(scheme) == "" {
		sspec.Shards = spec.Shards
	}
	return sspec
}

// runDumbbell is the shared scenario body, expressed on the scenario compiler
// and run by the one executor. Construction order is a bit-identity contract
// with the committed tables: compile (topology, impairments, schedule) and
// partition, then observers in the historical order (metrics registry,
// auditor, Instrument hook, delay monitor), then traffic.
//
// cc nil runs the registered scheme; otherwise the long flows and the web
// transfers run cc over DropTail bottlenecks and scheme only labels the run.
func runDumbbell(spec DumbbellSpec, scheme string, cc func() tcp.CongestionControl) DumbbellResult {
	x := mustStart(spec.scenarioSpec(scheme, cc != nil))
	d := x.Dumbbell()

	scenarioLine := fmt.Sprintf("dumbbell scheme=%s bw=%g flows=%d rev=%d web=%d loss=%g dup=%g reorder=%g changes=%d",
		scheme, spec.Bandwidth, spec.Flows, spec.ReverseFlows, spec.WebSessions,
		spec.LossRate, spec.DupRate, spec.ReorderRate, len(spec.Schedule))

	// The observability registry (nil when spec.Metrics is nil) is built
	// before the auditor so a violation's repro bundle can include the
	// flight-recorder dump.
	reg := spec.Metrics.newRegistry(x.Eng, scenarioLine)

	// The bottleneck's trailing trace is kept for the repro bundle; the
	// reverse bottleneck is bounded but not traced.
	cfg := netem.AuditConfig{Scenario: scenarioLine}
	if fl := reg.Flight(); fl != nil {
		cfg.MetricsDump = fl.Dump
	}
	x.audit(cfg, d.Reverse)

	if spec.Instrument != nil {
		spec.Instrument(d)
	}
	// The monitor gets its own RNG: instrumentation must never perturb the
	// simulation's random stream (results stay identical with or without).
	delayMon := stats.MonitorDelay(d.Forward, spec.MeasureFrom, rand.New(rand.NewSource(spec.Seed^0x5eed)))

	// One shared connection config for both long-flow directions: the RTT
	// observer must chain onto a single histogram, as the hand-wired
	// scenario did.
	conn := x.Groups[0].Conn
	observeRTT(reg, &conn)
	x.Groups[0].Conn, x.Groups[1].Conn = conn, conn
	if cc != nil {
		for _, g := range x.Groups {
			g.CC = cc
		}
	}
	x.Spawn()
	fwd := x.Groups[0].Flows
	spec.Metrics.instrumentDumbbell(reg, d, fwd)

	// Warm up, then measure.
	x.g.Run(spec.MeasureFrom)
	w := x.open()
	x.g.Run(spec.MeasureUntil)
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
		RetransOverhead: overhead,
		DelayP50:        p50,
		DelayP95:        p95,
		DelayP99:        p99,
		AvgQueue:        p.avgQueue,
		NormQueue:       p.avgQueue / float64(d.BufferPkts),
		DropRate:        p.dropRate,
		MarkRate:        p.markRate,
		Utilization:     p.utilization,
		Jain:            stats.Jain(w.goodputs(0)),
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
