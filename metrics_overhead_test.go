//go:build !race

// A wall-clock ratio means nothing under the race detector's
// instrumentation, so this file builds only without -race: it still runs in
// plain `go test ./...` and `make bench-smoke`.

package pert

import (
	"io"
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
// dumbbell. Interleaved min-of-k runs make the comparison robust to scheduler
// noise: the minimum is the cleanest observation of each configuration.
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
	const rounds = 7
	minOff, minOn := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := simSecond(engOff); d < minOff {
			minOff = d
		}
		if d := simSecond(engOn); d < minOn {
			minOn = d
		}
	}
	ratio := float64(minOn) / float64(minOff)
	t.Logf("disabled %v, enabled %v, ratio %.3f", minOff, minOn, ratio)
	if ratio > 1.10 {
		t.Errorf("metrics at the default interval cost %.1f%% (> 10%% budget): disabled %v, enabled %v",
			(ratio-1)*100, minOff, minOn)
	}
}
