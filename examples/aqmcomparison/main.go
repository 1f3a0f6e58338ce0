// AQM comparison: run the same mixed workload (long flows plus web sessions)
// under all six scheme/queue combinations — the paper's comparison set plus
// the Section 6 PI pair — and print the four evaluation panels side by side.
package main

import (
	"fmt"

	"pert/internal/experiments"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// cell is the workload under one scheme: a Section 4 dumbbell whose
// forward, reverse and web groups (in that order) all run it.
func cell(s experiments.Scheme) scenario.Spec {
	scheme, sw := string(s), sim.Seconds(5)
	return scenario.Spec{
		Seed: 7,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: 30e6,
			RTTs:      []sim.Duration{60 * sim.Millisecond},
		},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Scheme: scheme, Count: 12, From: "left", To: "right", StartWindow: sw},
			{Label: "rev", Scheme: scheme, From: "right", To: "left", StartWindow: sw},
			{Label: "web", Scheme: scheme, Count: 25, From: "left", To: "right", Traffic: scenario.Web, StartWindow: sw},
		},
		Duration:     sim.Seconds(50),
		MeasureFrom:  sim.Seconds(15),
		MeasureUntil: sim.Seconds(50),
	}
}

func main() {
	schemes := []experiments.Scheme{
		experiments.PERT,
		experiments.SackDroptail,
		experiments.SackRED,
		experiments.Vegas,
		experiments.PERTPI,
		experiments.SackPI,
	}

	fmt.Println("30 Mbps bottleneck, 60 ms RTT, 12 long flows + 25 web sessions")
	fmt.Printf("%-14s %10s %10s %10s %10s %8s\n",
		"scheme", "queue_pkts", "drop_rate", "mark_rate", "util", "jain")
	for _, s := range schemes {
		r := experiments.RunDumbbell(cell(s), experiments.Attachments{})
		fmt.Printf("%-14s %10.1f %10.2g %10.2g %10.3f %8.3f\n",
			s, r.AvgQueue, r.DropRate, r.MarkRate, r.Utilization, r.Jain)
	}
	fmt.Println("\nPERT variants run over plain DropTail: the AQM behaviour is")
	fmt.Println("emulated entirely in the end hosts' congestion response.")
}
