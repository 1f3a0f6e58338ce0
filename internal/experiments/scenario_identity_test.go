package experiments

import (
	"bytes"
	"io"
	"testing"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/topo"
)

// identitySpec is a quick-scale dumbbell exercising both directions, web
// traffic, faults, and a link schedule — every construction path whose RNG
// draw order the scenario compiler must reproduce.
func identitySpec(seed int64) scenario.Spec {
	s := cellSpec(seed, 10e6, 5, 2, 3, 2*sim.Second)
	s.Topology.RTTs = []sim.Duration{40 * sim.Millisecond, 80 * sim.Millisecond}
	s.Duration, s.MeasureFrom, s.MeasureUntil = 12*sim.Second, 4*sim.Second, 11*sim.Second
	s.Links[0].LossRate, s.Links[0].ReorderRate = 0.005, 0.002
	s.Links[0].Schedule = netem.LinkSchedule{
		{At: 6 * sim.Second, Capacity: 6e6},
		{At: 9 * sim.Second, Capacity: 10e6},
	}
	return s
}

// tracing attaches a packet tracer on the forward bottleneck writing to w.
func tracing(w io.Writer) Attachments {
	return Attachments{Instrument: func(d *topo.Dumbbell) { netem.NewTracer(w).Attach(d.Forward) }}
}

// TestScenarioCompilerBitIdentity is the metamorphic contract of the
// scenario-compiler refactor: running a dumbbell through the declarative
// layer must be indistinguishable — measured result AND full packet trace —
// from the frozen hand-wired path (legacyRunDumbbell), for representative
// schemes covering DropTail, router AQM with ECN, and designed-parameter
// controllers.
func TestScenarioCompilerBitIdentity(t *testing.T) {
	for _, s := range []Scheme{PERT, SackRED, PERTPI} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			spec := s.on(identitySpec(424200))

			var legacyTrace, gotTrace bytes.Buffer
			want := legacyRunDumbbellScheme(spec, tracing(&legacyTrace))
			got := RunDumbbell(spec, tracing(&gotTrace))
			got.Domains = 0 // the frozen reference predates the field

			if want != got {
				t.Errorf("compiler path diverged from legacy:\n  legacy:   %+v\n  compiler: %+v", want, got)
			}
			if !bytes.Equal(legacyTrace.Bytes(), gotTrace.Bytes()) {
				t.Errorf("packet traces differ (legacy %d bytes, compiler %d bytes)",
					legacyTrace.Len(), gotTrace.Len())
			}
		})
	}
}

// TestScenarioCompilerBitIdentityPlain covers the no-fault, single-direction
// shape the committed sweeps use (no impairment object must be constructed).
func TestScenarioCompilerBitIdentityPlain(t *testing.T) {
	spec := SackDroptail.on(cellSpec(7, 10e6, 6, 0, 0, sim.Second))
	spec.Duration, spec.MeasureFrom, spec.MeasureUntil = 10*sim.Second, 3*sim.Second, 10*sim.Second
	want := legacyRunDumbbellScheme(spec, Attachments{})
	got := RunDumbbell(spec, Attachments{})
	got.Domains = 0 // the frozen reference predates the field
	if want != got {
		t.Errorf("compiler path diverged from legacy:\n  legacy:   %+v\n  compiler: %+v", want, got)
	}
}
