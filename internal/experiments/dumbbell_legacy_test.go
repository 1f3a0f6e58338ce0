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
	"pert/internal/trafficgen"
)

// legacySpec is the flat single-bottleneck description the frozen oracle
// reads — the retired Section 4 spec type, kept here so that the oracle's
// body stays exactly as it was.
type legacySpec struct {
	Seed int64

	Bandwidth float64
	RTTs      []sim.Duration

	Flows        int
	ReverseFlows int
	WebSessions  int

	BufferPkts int // 0 = paper rule (BDP, floor 2*flows)

	Duration     sim.Duration
	MeasureFrom  sim.Duration
	MeasureUntil sim.Duration
	StartWindow  sim.Duration

	TargetDelay  sim.Duration
	AccessJitter sim.Duration

	LossRate     float64
	DupRate      float64
	ReorderRate  float64
	ReorderExtra sim.Duration
	Schedule     netem.LinkSchedule

	Instrument func(d *topo.Dumbbell)
	Metrics    *MetricsSpec
}

// legacyOf flattens a Section 4 cell and its attachments into the oracle's
// input: one start window (the forward group's) and the forward rule.
func legacyOf(spec scenario.Spec, at Attachments) legacySpec {
	t, g := spec.Topology, spec.Groups
	l := legacySpec{
		Seed:         spec.Seed,
		Bandwidth:    t.Bandwidth,
		RTTs:         t.RTTs,
		Flows:        g[fwdGroup].Count,
		ReverseFlows: g[revGroup].Count,
		WebSessions:  g[webGroup].Count,
		BufferPkts:   t.BufferPkts,
		Duration:     spec.Duration,
		MeasureFrom:  spec.MeasureFrom,
		MeasureUntil: spec.MeasureUntil,
		StartWindow:  g[fwdGroup].StartWindow,
		TargetDelay:  spec.TargetDelay,
		AccessJitter: t.AccessJitter,
		Instrument:   at.Instrument,
		Metrics:      at.Metrics,
	}
	if len(spec.Links) > 0 {
		r := spec.Links[0]
		l.LossRate, l.DupRate, l.ReorderRate = r.LossRate, r.DupRate, r.ReorderRate
		l.ReorderExtra, l.Schedule = r.ReorderExtra, r.Schedule
	}
	return l
}

// legacyRunDumbbell is a frozen copy of the hand-wired dumbbell scenario body
// from before the scenario-compiler refactor. It exists only as the oracle
// for the metamorphic bit-identity test: the compiler path must consume
// engine sequence numbers and RNG draws at exactly the same program points,
// so every result field and packet trace must match this byte for byte.
// Do not "fix" or modernize it — its value is that it does not change.
func legacyRunDumbbell(eng *sim.Engine, net *netem.Network, spec legacySpec, scheme string,
	qf topo.QueueFactory, ccf func() tcp.CongestionControl, ecn bool,
	webccf func() tcp.CongestionControl) DumbbellResult {

	if spec.BufferPkts == 0 {
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
	if hosts > 256 {
		hosts = 256
	}
	d := topo.NewDumbbell(net, topo.DumbbellConfig{
		Bandwidth:    spec.Bandwidth,
		Delay:        spec.RTTs[0] / 3,
		Hosts:        hosts,
		RTTs:         spec.RTTs,
		BufferPkts:   spec.BufferPkts,
		AccessJitter: spec.AccessJitter,
		Queue:        qf,
	})

	if spec.LossRate > 0 || spec.DupRate > 0 || spec.ReorderRate > 0 {
		imp := netem.NewImpairment(spec.Seed ^ 0xfa017)
		imp.Loss, imp.Dup, imp.Reorder = spec.LossRate, spec.DupRate, spec.ReorderRate
		imp.ReorderMax = spec.ReorderExtra
		if imp.Reorder > 0 && imp.ReorderMax <= 0 {
			imp.ReorderMax = 5 * sim.Millisecond
		}
		d.Forward.SetImpairment(imp)
	}
	spec.Schedule.Apply(d.Forward)

	scenario := legacyScenarioString(spec, scheme)

	reg := spec.Metrics.newRegistry(eng, scenario)

	cfg := netem.AuditConfig{Seed: spec.Seed, Scenario: scenario}
	if fl := reg.Flight(); fl != nil {
		cfg.MetricsDump = fl.Dump
	}
	aud := netem.StartAudit(net, cfg)
	aud.Watch(d.Forward)
	aud.BoundQueue(d.Forward, d.BufferPkts)
	aud.BoundQueue(d.Reverse, d.BufferPkts)

	if spec.Instrument != nil {
		spec.Instrument(d)
	}
	delayMon := stats.MonitorDelay(d.Forward, spec.MeasureFrom, rand.New(rand.NewSource(spec.Seed^0x5eed)))

	ids := trafficgen.NewIDs()
	conn := tcp.Config{ECN: ecn}
	observeRTT(reg, &conn)

	fwd := trafficgen.FTPFleet(net, ids, d.Left, d.Right, spec.Flows, trafficgen.FTPConfig{
		CC: ccf, Conn: conn, StartWindow: spec.StartWindow,
	})
	trafficgen.FTPFleet(net, ids, d.Right, d.Left, spec.ReverseFlows, trafficgen.FTPConfig{
		CC: ccf, Conn: conn, StartWindow: spec.StartWindow,
	})
	if spec.WebSessions > 0 {
		trafficgen.WebFleet(net, ids, d.Left, d.Right, spec.WebSessions,
			trafficgen.WebConfig{Conn: tcp.Config{ECN: ecn}, CC: webccf}, spec.StartWindow)
	}
	spec.Metrics.instrumentDumbbell(reg, d, fwd)

	eng.Run(spec.MeasureFrom)
	meter := stats.NewMeter(d.Forward)
	meter.Start(eng.Now())
	qmon := stats.MonitorQueue(eng, d.Forward, eng.Now(), 10*sim.Millisecond)
	snap := trafficgen.GoodputSnapshot(fwd)

	eng.Run(spec.MeasureUntil)
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
	res := DumbbellResult{
		RetransOverhead: overhead,
		DelayP50:        p50,
		DelayP95:        p95,
		DelayP99:        p99,
		AvgQueue:        qmon.Series.Mean(),
		NormQueue:       qmon.Series.Mean() / float64(d.BufferPkts),
		DropRate:        meter.DropRate(),
		MarkRate:        meter.MarkRate(),
		Utilization:     meter.Utilization(eng.Now()),
		Jain:            stats.Jain(trafficgen.Goodputs(fwd, snap)),
		BufferPkts:      d.BufferPkts,
	}
	qmon.Stop()
	eng.Run(spec.Duration)
	_ = reg.Close()
	return res
}

// legacyScenarioString is the frozen audit-bundle scenario line.
func legacyScenarioString(spec legacySpec, scheme string) string {
	return fmt.Sprintf("dumbbell scheme=%s bw=%g flows=%d rev=%d web=%d loss=%g dup=%g reorder=%g changes=%d",
		scheme, spec.Bandwidth, spec.Flows, spec.ReverseFlows, spec.WebSessions,
		spec.LossRate, spec.DupRate, spec.ReorderRate, len(spec.Schedule))
}

// legacyRunDumbbellScheme mirrors the old RunDumbbell entry point on the
// cell's flattened form: the cell's forward group names the scheme.
func legacyRunDumbbellScheme(cell scenario.Spec, at Attachments) DumbbellResult {
	spec, scheme := legacyOf(cell, at), Scheme(cell.Groups[fwdGroup].Scheme)
	eng := sim.NewEngine(spec.Seed)
	net := netem.NewNetwork(eng)

	maxRTT := spec.RTTs[0]
	for _, r := range spec.RTTs {
		if r > maxRTT {
			maxRTT = r
		}
	}
	env := scenario.Env{
		CapacityPPS: spec.Bandwidth / (8 * 1040),
		NFlows:      spec.Flows + spec.ReverseFlows,
		MaxRTT:      maxRTT,
		TargetDelay: spec.TargetDelay,
	}
	// The paper's background web traffic is standard TCP except under schemes
	// every end host runs (the registry's ProactiveWeb flag).
	def := scenario.MustLookup(string(scheme))
	webccf := func() tcp.CongestionControl { return tcp.Reno{} }
	if def.ProactiveWeb {
		webccf = def.CC(net, env)
	}
	res := legacyRunDumbbell(eng, net, spec, string(scheme), def.Queue(net, env), def.CC(net, env), def.ECN, webccf)
	res.Scheme = scheme
	return res
}
