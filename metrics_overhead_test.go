//go:build !race

// A wall-clock ratio means nothing under the race detector's
// instrumentation, so this file builds only without -race: it still runs in
// plain `go test ./...` and `make bench-smoke`.

package pert

import (
	"io"
	"sort"
	"testing"
	"time"

	"pert/internal/netem"
	"pert/internal/obs"
	"pert/internal/queue"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
	"pert/internal/trafficgen"
)

// metricsBenchTopology builds the BenchmarkSimulatedSecond dumbbell and, when
// withMetrics is set, attaches the full observability path a metrics-enabled
// run pays: the bottleneck link series, per-flow sender series for every
// flow, a per-ACK RTT histogram, and a JSONL writer to io.Discard sampling at
// the default 100 ms interval.
func metricsBenchTopology(withMetrics bool) (*sim.Engine, *topo.Dumbbell) {
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
	conn := tcp.Config{}
	var reg *obs.Registry
	if withMetrics {
		reg = obs.NewRegistry(eng)
		reg.AddSink(obs.NewJSONLWriter(io.Discard))
		reg.EnableFlight("overhead-bench", 0)
		hist := reg.NewHistogram("tcp.rtt")
		conn.OnRTTSample = func(_ sim.Time, rtt sim.Duration, _ *netem.Packet) {
			hist.Observe(rtt.Seconds())
		}
	}
	fwd := trafficgen.FTPFleet(net, ids, d.Left, d.Right, 8, trafficgen.FTPConfig{
		CC:   func() tcp.CongestionControl { return tcp.NewPERTRed() },
		Conn: conn,
	})
	if withMetrics {
		d.Forward.Instrument(reg, "queue")
		for i, f := range fwd {
			tcp.InstrumentConn(reg, f.Conn, "tcp/"+string(rune('0'+i)))
		}
		reg.Start(0, 100*sim.Millisecond)
	}
	return eng, d
}

// BenchmarkSimulatedSecondMetrics is BenchmarkSimulatedSecond with the
// observability layer enabled — compare the two to see what a metrics-on run
// costs (the acceptance budget is <10%).
func BenchmarkSimulatedSecondMetrics(b *testing.B) {
	eng, d := metricsBenchTopology(true)
	eng.Run(5 * sim.Second)
	b.ResetTimer()
	start := d.Forward.Stats.TxPackets
	horizon := eng.Now()
	for i := 0; i < b.N; i++ {
		horizon += sim.Second
		eng.Run(horizon)
	}
	b.ReportMetric(float64(d.Forward.Stats.TxPackets-start)/float64(b.N), "pkts/simsec")
}

// TestMetricsOverheadSmoke asserts that enabling metrics at the default
// sampling interval costs under 10% of wall time on the standard loaded
// dumbbell. Each round times one simulated second on each engine back to
// back, alternating which goes first, and yields one on/off ratio; the gate
// is the median of those paired ratios. A burst of load from elsewhere then
// lands on both halves of a round or spoils only that round's ratio, where a
// ratio of two independent minima moves whenever the burst hits one side's
// minimum and not the other's. A simulated second takes a few milliseconds,
// so 61 rounds cost about a second and keep the median's spread under
// load to a few percent.
func TestMetricsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped with -short")
	}
	engOff, _ := metricsBenchTopology(false)
	engOn, _ := metricsBenchTopology(true)
	engOff.Run(5 * sim.Second) // steady state before timing
	engOn.Run(5 * sim.Second)

	simSecond := func(eng *sim.Engine) time.Duration {
		t0 := time.Now()
		eng.Run(eng.Now() + sim.Second)
		return time.Since(t0)
	}
	const rounds = 61
	ratios := make([]float64, rounds)
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off = simSecond(engOff)
			on = simSecond(engOn)
		} else {
			on = simSecond(engOn)
			off = simSecond(engOff)
		}
		ratios[i] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	t.Logf("median on/off ratio %.3f over %d rounds (quartiles %.3f–%.3f)",
		ratio, rounds, ratios[rounds/4], ratios[3*rounds/4])
	if ratio > 1.10 {
		t.Errorf("metrics at the default interval cost %.1f%% (> 10%% budget); per-round ratio quartiles %.3f–%.3f",
			(ratio-1)*100, ratios[rounds/4], ratios[3*rounds/4])
	}
}
