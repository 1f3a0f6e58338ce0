// Benchmarks regenerating every table and figure of the paper at quick
// scale, plus ablations of PERT's design choices and micro-benchmarks of the
// simulator substrate. Custom metrics attached via b.ReportMetric carry the
// experiment's headline numbers (queue, drops, utilization, fairness) into
// the benchmark output, so `go test -bench=.` doubles as a results run.
//
// Run a single experiment:   go test -bench=BenchmarkFig6 -benchtime=1x
// Full paper-scale runs:     go run ./cmd/pertbench -scale paper
package pert

import (
	"context"
	"math/rand"
	"testing"

	"pert/internal/core"
	"pert/internal/experiments"
	"pert/internal/fluid"
	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
	"pert/internal/trafficgen"
)

// runExperiment executes a registered experiment once per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	ctx := context.Background()
	var tables []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = exp.Run(ctx, experiments.Quick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	rows := 0
	for _, t := range tables {
		rows += len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// --- One benchmark per paper table/figure (E1..E13 in DESIGN.md) ---

// BenchmarkSection2 simulates the six Section 2 traces and extracts
// Figures 2-4 and the ext-threshold sweep from them.
func BenchmarkSection2(b *testing.B) { runExperiment(b, "section2") }
func BenchmarkFig5(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkTable1(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkFig11(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)    { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)    { runExperiment(b, "fig14") }

// Extension experiments (beyond the paper; see EXPERIMENTS.md).

func BenchmarkExtAQM(b *testing.B)        { runExperiment(b, "ext-aqm") }
func BenchmarkExtValidation(b *testing.B) { runExperiment(b, "ext-validation") }
func BenchmarkExtJitter(b *testing.B)     { runExperiment(b, "ext-jitter") }
func BenchmarkExtDelayCC(b *testing.B)    { runExperiment(b, "ext-delaycc") }
func BenchmarkExtHighSpeed(b *testing.B)  { runExperiment(b, "ext-highspeed") }
func BenchmarkExtCoexist(b *testing.B)    { runExperiment(b, "ext-coexist") }
func BenchmarkExtFCT(b *testing.B)        { runExperiment(b, "ext-fct") }
func BenchmarkExtStability(b *testing.B)  { runExperiment(b, "ext-stability") }
func BenchmarkExtReplicated(b *testing.B) { runExperiment(b, "ext-replicated") }

// --- Ablations of PERT's fixed design choices (DESIGN.md section 4) ---

func reportAblation(b *testing.B, r experiments.DumbbellResult) {
	b.Helper()
	b.ReportMetric(r.AvgQueue, "queue_pkts")
	b.ReportMetric(r.DropRate*1e6, "drops_ppm")
	b.ReportMetric(r.Utilization*100, "util_%")
	b.ReportMetric(r.Jain*1000, "jain_milli")
}

// BenchmarkAblationDecreaseFactor sweeps the early-response multiplicative
// decrease around the paper's 0.35 (eq. 1).
func BenchmarkAblationDecreaseFactor(b *testing.B) {
	for _, f := range []float64{0.20, 0.35, 0.50} {
		v := experiments.DefaultVariant("decrease")
		v.DecreaseFactor = f
		b.Run(pctName(f), func(b *testing.B) {
			var r experiments.DumbbellResult
			for i := 0; i < b.N; i++ {
				r = experiments.RunAblation(v, 21)
			}
			reportAblation(b, r)
		})
	}
}

// BenchmarkAblationSignalWeight compares the srtt_0.99 smoothing against
// TCP's 7/8 and the raw per-ACK signal (ties to Figure 3).
func BenchmarkAblationSignalWeight(b *testing.B) {
	for _, tc := range []struct {
		name string
		w    float64
	}{{"w0.5", 0.5}, {"w0.875", 0.875}, {"w0.99", 0.99}} {
		v := experiments.DefaultVariant("weight")
		v.HistoryWeight = tc.w
		b.Run(tc.name, func(b *testing.B) {
			var r experiments.DumbbellResult
			for i := 0; i < b.N; i++ {
				r = experiments.RunAblation(v, 22)
			}
			reportAblation(b, r)
		})
	}
}

// BenchmarkAblationResponseLimit toggles the once-per-RTT early-response
// limit (Section 3: the effect of a reduction is invisible for one RTT).
func BenchmarkAblationResponseLimit(b *testing.B) {
	for _, tc := range []struct {
		name      string
		unlimited bool
	}{{"once-per-rtt", false}, {"unlimited", true}} {
		v := experiments.DefaultVariant("limit")
		v.Unlimited = tc.unlimited
		b.Run(tc.name, func(b *testing.B) {
			var r experiments.DumbbellResult
			for i := 0; i < b.N; i++ {
				r = experiments.RunAblation(v, 23)
			}
			reportAblation(b, r)
		})
	}
}

// BenchmarkAblationGentle compares the gentle upper ramp against a curve
// clipped at pmax.
func BenchmarkAblationGentle(b *testing.B) {
	for _, tc := range []struct {
		name   string
		gentle bool
	}{{"gentle", true}, {"clipped", false}} {
		v := experiments.DefaultVariant("gentle")
		v.Curve.Gentle = tc.gentle
		b.Run(tc.name, func(b *testing.B) {
			var r experiments.DumbbellResult
			for i := 0; i < b.N; i++ {
				r = experiments.RunAblation(v, 24)
			}
			reportAblation(b, r)
		})
	}
}

// BenchmarkAblationThresholds sweeps the queueing-delay thresholds around
// the paper's P+5 ms / P+10 ms.
func BenchmarkAblationThresholds(b *testing.B) {
	for _, tc := range []struct {
		name       string
		tmin, tmax sim.Duration
	}{
		{"2.5ms-5ms", sim.Milliseconds(2.5), 5 * sim.Millisecond},
		{"5ms-10ms", 5 * sim.Millisecond, 10 * sim.Millisecond},
		{"10ms-20ms", 10 * sim.Millisecond, 20 * sim.Millisecond},
	} {
		v := experiments.DefaultVariant("thresholds")
		v.Curve.Tmin, v.Curve.Tmax = tc.tmin, tc.tmax
		b.Run(tc.name, func(b *testing.B) {
			var r experiments.DumbbellResult
			for i := 0; i < b.N; i++ {
				r = experiments.RunAblation(v, 25)
			}
			reportAblation(b, r)
		})
	}
}

// BenchmarkAblationResponderKind compares the AQM emulations PERT can host:
// the paper's RED curve, the Section 6 PI controller, the Section 7
// adaptive-proactiveness variant, and a REM emulation (the conclusion's
// "other AQM schemes" claim).
func BenchmarkAblationResponderKind(b *testing.B) {
	spec := experiments.AblationSpec(26)
	pps, flows := spec.Topology.Bandwidth/(8*1040), spec.Groups[0].Count // the forward group
	kinds := []struct {
		name string
		cc   func() tcp.CongestionControl
	}{
		{"red", func() tcp.CongestionControl { return tcp.NewPERTRed() }},
		{"pi", func() tcp.CongestionControl {
			return tcp.NewPERTLazy(func(c *tcp.Conn) core.Responder {
				params := core.DesignPERTPI(pps, flows, 120*sim.Millisecond)
				return core.NewPIResponder(c.Engine().Rand(), params,
					sim.Seconds(float64(flows)/pps), 3*sim.Millisecond)
			})
		}},
		{"rem", func() tcp.CongestionControl {
			return tcp.NewPERTLazy(func(c *tcp.Conn) core.Responder {
				return core.NewREMResponder(c.Engine().Rand(), 0, 0, 3*sim.Millisecond)
			})
		}},
		{"adaptive", func() tcp.CongestionControl {
			return tcp.NewPERTLazy(func(c *tcp.Conn) core.Responder {
				return core.NewAdaptiveResponder(c.Engine().Rand())
			})
		}},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			var r experiments.DumbbellResult
			for i := 0; i < b.N; i++ {
				r = experiments.RunDumbbell(spec, experiments.Attachments{CC: k.cc})
			}
			reportAblation(b, r)
		})
	}
}

func pctName(f float64) string {
	switch f {
	case 0.20:
		return "f0.20"
	case 0.35:
		return "f0.35"
	default:
		return "f0.50"
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkEngineScheduleRun measures raw event throughput of the
// discrete-event core.
func BenchmarkEngineScheduleRun(b *testing.B) {
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	var t sim.Time
	for i := 0; i < b.N; i++ {
		t += sim.Microsecond
		eng.Do(t, func() {})
		if i%1024 == 1023 {
			eng.Run(t)
		}
	}
	eng.Run(sim.MaxTime - 1)
}

// BenchmarkDropTail measures the FIFO fast path.
func BenchmarkDropTail(b *testing.B) {
	q := queue.NewDropTail(1024)
	p := &netem.Packet{Size: 1040}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p, sim.Time(i))
		q.Dequeue(sim.Time(i))
	}
}

// BenchmarkRED measures RED's per-arrival average update and marking draw.
func BenchmarkRED(b *testing.B) {
	r := queue.NewRED(queue.REDConfig{Limit: 1024, MinTh: 100, MaxTh: 300, Wq: 0.002, Gentle: true}, rand.New(rand.NewSource(1)))
	p := &netem.Packet{Size: 1040}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enqueue(p, sim.Time(i)*sim.Microsecond)
		r.Dequeue(sim.Time(i) * sim.Microsecond)
	}
}

// BenchmarkScoreboard measures SACK scoreboard maintenance with a moving
// window of holes.
func BenchmarkScoreboard(b *testing.B) {
	var s tcp.Scoreboard
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := int64(i) * 4
		s.Add(netem.SackBlock{Start: base + 2, End: base + 4})
		s.AckedUpTo(base)
		_ = s.NextHole(base, base+4)
	}
}

// BenchmarkResponderOnRTT measures PERT's per-ACK cost: EWMA update, curve
// evaluation, and the probabilistic draw.
func BenchmarkResponderOnRTT(b *testing.B) {
	r := core.NewREDResponder(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += 100 * sim.Microsecond
		r.OnRTT(now, 60*sim.Millisecond+sim.Duration(i%8)*sim.Millisecond)
	}
}

// BenchmarkFluidStep measures the DDE integrator.
func BenchmarkFluidStep(b *testing.B) {
	p := fluid.PERTParams{C: 100, N: 5, R: 0.1, Tmin: 0.05, Tmax: 0.1, Pmax: 0.1, Alpha: 0.99, Delta: 1e-4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Trajectory(1.0, 1e-3, nil) // 1000 RK4 steps
	}
}

// BenchmarkSimulatedSecond measures end-to-end simulator throughput: one
// virtual second of a loaded 30 Mbps dumbbell, reporting simulated packets
// per wall-second via the per-op packet count.
func BenchmarkSimulatedSecond(b *testing.B) {
	eng := sim.NewEngine(99)
	net := netem.NewNetwork(eng)
	d := topo.NewDumbbell(net, topo.DumbbellConfig{
		Bandwidth: 30e6,
		Delay:     20 * sim.Millisecond,
		Hosts:     8,
		RTTs:      []sim.Duration{60 * sim.Millisecond},
		Queue: func(limit int, _ float64) netem.Discipline {
			return queue.NewDropTail(limit)
		},
	})
	ids := trafficgen.NewIDs()
	trafficgen.FTPFleet(net, ids, d.Left, d.Right, 8, trafficgen.FTPConfig{
		CC: func() tcp.CongestionControl { return tcp.NewPERTRed() },
	})
	eng.Run(5 * sim.Second) // reach steady state outside the timer
	b.ResetTimer()
	start := d.Forward.Stats.TxPackets
	horizon := eng.Now()
	for i := 0; i < b.N; i++ {
		horizon += sim.Second
		eng.Run(horizon)
	}
	b.ReportMetric(float64(d.Forward.Stats.TxPackets-start)/float64(b.N), "pkts/simsec")
}
