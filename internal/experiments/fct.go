package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
)

// ExtFCT measures what the paper's queue-length panels imply for users: web
// object flow-completion times. Short transfers spend most of their life in
// slow start, where every RTT of standing queue is pure added latency — so
// schemes that keep the bottleneck queue short (PERT, router AQM) should
// complete small objects much faster than DropTail even at equal link
// utilization.
func ExtFCT(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	_, from, until, sw := scale.window()
	bwMbps, flows, webs := 30.0, 10, 60
	if scale == Paper {
		bwMbps, flows, webs = 150, 50, 300
	}
	t := &Table{
		ID:    "ext-fct",
		Title: fmt.Sprintf("Extension: web-object flow completion times (%g Mbps, %d long flows + %d sessions)", bwMbps, flows, webs),
		Header: []string{"scheme", "small_fct_p50_ms", "small_fct_p95_ms",
			"large_fct_p50_ms", "objects", "avg_queue_pkts", "utilization"},
	}
	for i, s := range []Scheme{PERT, SackDroptail, SackRED, Vegas} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := runFCT(9600+int64(i), s, bwMbps*1e6, flows, webs, from, until, sw)
		t.AddRow(string(s), f2(r.smallP50*1000), f2(r.smallP95*1000),
			f2(r.largeP50*1000), fmt.Sprint(r.objects), f2(r.avgQueue), f3(r.util))
	}
	t.Notes = append(t.Notes,
		"small = objects of at most 12 segments (the distribution mean); large = the rest",
		"FCTs measured only for objects completing inside the measurement window")
	return t, nil
}

type fctResult struct {
	smallP50, smallP95 float64
	largeP50           float64
	objects            uint64
	avgQueue, util     float64
}

// runFCT runs one scheme's long flows plus web sessions and samples the
// completion time of every object finishing inside the window. Nothing is read
// after the window closes, so the run ends there.
func runFCT(seed int64, scheme Scheme, bw float64, flows, webs int, from, until, sw sim.Duration) fctResult {
	x := mustStart(scenario.Spec{
		Name: "ext-fct",
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: bw,
			Delay:     20 * sim.Millisecond,
			Hosts:     64,
			RTTs:      []sim.Duration{60 * sim.Millisecond},
			AQM:       string(scheme),
		},
		Groups: []scenario.FlowGroupSpec{
			{Scheme: string(scheme), Count: flows, From: "left", To: "right", StartWindow: sw},
			{Scheme: string(scheme), Count: webs, From: "left", To: "right", Traffic: scenario.Web, StartWindow: sw},
		},
		Duration: until, MeasureFrom: from,
	})
	scen := fmt.Sprintf("ext-fct scheme=%s bw=%g flows=%d web=%d", scheme, bw, flows, webs)
	x.audit(netem.AuditConfig{Scenario: scen})

	small := stats.NewReservoir(4096, rand.New(rand.NewSource(seed^0xfc7)))
	large := stats.NewReservoir(4096, rand.New(rand.NewSource(seed^0xfc8)))
	var objects uint64
	x.Groups[1].Web.OnObject = func(segs int64, fct sim.Duration) {
		if x.Eng.Now() < from {
			return
		}
		objects++
		if segs <= 12 {
			small.Add(fct.Seconds())
		} else {
			large.Add(fct.Seconds())
		}
	}
	x.Spawn()

	x.g.Run(from)
	w := x.open()
	x.g.Run(until)
	p := w.close()[0]
	x.mustFinish(scen)
	return fctResult{
		smallP50: small.Quantile(0.5),
		smallP95: small.Quantile(0.95),
		largeP50: large.Quantile(0.5),
		objects:  objects,
		avgQueue: p.avgQueue,
		util:     p.utilization,
	}
}
