package experiments

import (
	"strings"
	"testing"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// cellSpec is a scheme-less Section 4 cell: fwd, rev and web groups starting
// in [0, sw) over a DropTail bottleneck of bw bits/s at a 60 ms RTT, with an
// empty forward link rule. Callers set the window.
func cellSpec(seed int64, bw float64, fwd, rev, web int, sw sim.Duration) scenario.Spec {
	return scenario.Spec{
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:  scenario.DumbbellTemplate,
			Bandwidth: bw,
			RTTs:      []sim.Duration{ms(60)},
			AQM:       string(SackDroptail),
		},
		Links: []scenario.LinkRule{{Link: "forward"}},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Count: fwd, From: "left", To: "right", StartWindow: sw},
			{Label: "rev", Count: rev, From: "right", To: "left", StartWindow: sw},
			{Label: "web", Count: web, From: "left", To: "right", Traffic: scenario.Web, StartWindow: sw},
		},
	}
}

func quickSpec(seed int64) scenario.Spec {
	s := cellSpec(seed, 10e6, 5, 1, 0, seconds(3))
	s.Duration, s.MeasureFrom, s.MeasureUntil = seconds(30), seconds(8), seconds(28)
	return s
}

// runScheme runs the cell under a registered scheme with no attachments.
func runScheme(spec scenario.Spec, s Scheme) DumbbellResult {
	return RunDumbbell(s.on(spec), Attachments{})
}

// TestRunDumbbellRejectsNonCell: RunDumbbell indexes the forward, reverse
// and web groups, so a spec without that shape, or with no forward traffic
// to measure, panics with a message naming the rule (CheckCell), not with an
// index error or a report of the reverse ACK load.
func TestRunDumbbellRejectsNonCell(t *testing.T) {
	oneGroup := cellSpec(1, 10e6, 4, 0, 0, 0)
	oneGroup.Groups = oneGroup.Groups[:1]
	parkingLot := cellSpec(1, 10e6, 4, 0, 0, 0)
	parkingLot.Topology.Template = scenario.ParkingLotTemplate
	for _, tc := range []struct {
		name string
		spec scenario.Spec
		want string
	}{
		{"one group", oneGroup, "three groups"},
		{"parking lot", parkingLot, "three groups"},
		{"reverse only", cellSpec(1, 10e6, 0, 2, 0, 0), "no traffic on the measured forward direction"},
	} {
		if err := CheckCell(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckCell = %v, want an error containing %q", tc.name, err, tc.want)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: RunDumbbell panic %q, want one containing %q", tc.name, msg, tc.want)
				}
			}()
			RunDumbbell(SackDroptail.on(tc.spec), Attachments{})
		}()
	}
	if err := CheckCell(cellSpec(1, 10e6, 0, 2, 3, 0)); err != nil {
		t.Errorf("web-only forward traffic: %v", err)
	}
}

func TestRunDumbbellAllSchemes(t *testing.T) {
	for _, s := range []Scheme{PERT, SackDroptail, SackRED, Vegas, PERTPI, SackPI} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			r := runScheme(quickSpec(99), s)
			if r.Utilization < 0.5 || r.Utilization > 1.02 {
				t.Fatalf("%s utilization = %v", s, r.Utilization)
			}
			if r.Jain < 0.3 || r.Jain > 1.0001 {
				t.Fatalf("%s jain = %v", s, r.Jain)
			}
			if r.NormQueue < 0 || r.NormQueue > 1 {
				t.Fatalf("%s norm queue = %v", s, r.NormQueue)
			}
			if r.BufferPkts <= 0 {
				t.Fatalf("%s buffer = %d", s, r.BufferPkts)
			}
		})
	}
}

func TestPERTBeatsDroptailOnQueueAndDrops(t *testing.T) {
	pert := runScheme(quickSpec(7), PERT)
	sack := runScheme(quickSpec(7), SackDroptail)
	if pert.AvgQueue >= sack.AvgQueue {
		t.Fatalf("PERT queue %v >= Sack/Droptail %v", pert.AvgQueue, sack.AvgQueue)
	}
	if pert.DropRate > sack.DropRate {
		t.Fatalf("PERT drops %v > Sack/Droptail %v", pert.DropRate, sack.DropRate)
	}
}

func TestRunDumbbellWithWebTraffic(t *testing.T) {
	spec := quickSpec(11)
	spec.Groups[webGroup].Count = 10
	r := runScheme(spec, PERT)
	if r.Utilization < 0.5 {
		t.Fatalf("utilization with web = %v", r.Utilization)
	}
}
