// Faultinjection: the deterministic network-impairment subsystem in action.
// A PERT fleet and a Sack/Droptail fleet each cross a lossy bottleneck whose
// capacity halves mid-run and which flaps down entirely for two seconds —
// while the invariant auditor checks packet conservation the whole time.
// The point of the comparison: random wire loss hits a loss-based controller
// directly (every loss halves its window) but is invisible to PERT's delay
// signal, so PERT keeps its low queue without surrendering utilization.
package main

import (
	"fmt"

	"pert/internal/experiments"
	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/topo"
)

func main() {
	// A flapping, lossy 30 Mbps bottleneck: capacity halves at t=15s,
	// recovers at t=30s, and the link blacks out entirely during 35-37s
	// (queued packets and packets on the wire are lost).
	schedule := netem.LinkSchedule{
		{At: sim.Seconds(15), Capacity: 15e6},
		{At: sim.Seconds(30), Capacity: 30e6},
		{At: sim.Seconds(35), Down: true},
		{At: sim.Seconds(37), Up: true},
	}

	fmt.Println("30 Mbps bottleneck, 60 ms RTT, 12 flows")
	fmt.Println("faults: 1% wire loss, 0.1% duplication, 0.5% reordering (<=5ms), capacity dip + 2s blackout")
	fmt.Println()
	fmt.Printf("%-14s %10s %10s %10s %8s %12s\n",
		"scheme", "queue_pkts", "wire_loss", "queue_drop", "util", "retrans_ovh")

	for _, s := range []experiments.Scheme{experiments.PERT, experiments.SackDroptail} {
		var bottleneck *netem.Link
		scheme, sw := string(s), sim.Seconds(5)
		r := experiments.RunDumbbell(scenario.Spec{
			Seed: 7,
			Topology: scenario.TopologySpec{
				Template:  scenario.DumbbellTemplate,
				Bandwidth: 30e6,
				RTTs:      []sim.Duration{60 * sim.Millisecond},
			},
			Links: []scenario.LinkRule{{
				Link:         "forward",
				LossRate:     0.01,
				DupRate:      0.001,
				ReorderRate:  0.005,
				ReorderExtra: 5 * sim.Millisecond,
				Schedule:     schedule,
			}},
			Groups: []scenario.FlowGroupSpec{
				{Label: "fwd", Scheme: scheme, Count: 12, From: "left", To: "right", StartWindow: sw},
				{Label: "rev", Scheme: scheme, From: "right", To: "left", StartWindow: sw},
				{Label: "web", Scheme: scheme, From: "left", To: "right", Traffic: scenario.Web, StartWindow: sw},
			},
			Duration:     sim.Seconds(50),
			MeasureFrom:  sim.Seconds(10),
			MeasureUntil: sim.Seconds(50),
		}, experiments.Attachments{
			Instrument: func(d *topo.Dumbbell) { bottleneck = d.Forward },
		})
		st := bottleneck.Impairments()
		fmt.Printf("%-14s %10.1f %10d %10.2g %8.3f %12.2g\n",
			r.Scheme, r.AvgQueue, st.WireLost, r.DropRate, r.Utilization, r.RetransOverhead)
		fmt.Printf("%-14s blackholed during the outage: %d packets\n", "", st.Blackholed)
	}

	fmt.Println()
	fmt.Println("Every run above carried the conservation auditor; a violated invariant")
	fmt.Println("would have aborted with a repro bundle (seed, scenario, trailing trace).")
}
