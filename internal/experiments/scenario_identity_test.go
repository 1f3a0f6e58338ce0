package experiments

import (
	"bytes"
	"testing"

	"pert/internal/netem"
	"pert/internal/sim"
	"pert/internal/topo"
)

// identitySpec is a quick-scale dumbbell exercising both directions, web
// traffic, faults, and a link schedule — every construction path whose RNG
// draw order the scenario compiler must reproduce.
func identitySpec(seed int64) DumbbellSpec {
	return DumbbellSpec{
		Seed:      seed,
		Bandwidth: 10e6,
		RTTs:      []sim.Duration{40 * sim.Millisecond, 80 * sim.Millisecond},
		Flows:     5, ReverseFlows: 2, WebSessions: 3,
		Duration: 12 * sim.Second, MeasureFrom: 4 * sim.Second, MeasureUntil: 11 * sim.Second,
		StartWindow: 2 * sim.Second,
		LossRate:    0.005, ReorderRate: 0.002,
		Schedule: netem.LinkSchedule{
			{At: 6 * sim.Second, Capacity: 6e6},
			{At: 9 * sim.Second, Capacity: 10e6},
		},
	}
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
			spec := identitySpec(424200)

			var legacyTrace bytes.Buffer
			lspec := spec
			lspec.Instrument = func(d *topo.Dumbbell) {
				netem.NewTracer(&legacyTrace).Attach(d.Forward)
			}
			want := legacyRunDumbbellScheme(lspec, s)

			var gotTrace bytes.Buffer
			nspec := spec
			nspec.Instrument = func(d *topo.Dumbbell) {
				netem.NewTracer(&gotTrace).Attach(d.Forward)
			}
			got := RunDumbbell(nspec, s)
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
	spec := DumbbellSpec{
		Seed:      7,
		Bandwidth: 10e6,
		RTTs:      []sim.Duration{60 * sim.Millisecond},
		Flows:     6,
		Duration:  10 * sim.Second, MeasureFrom: 3 * sim.Second, MeasureUntil: 10 * sim.Second,
		StartWindow: sim.Second,
	}
	want := legacyRunDumbbellScheme(spec, SackDroptail)
	got := RunDumbbell(spec, SackDroptail)
	got.Domains = 0 // the frozen reference predates the field
	if want != got {
		t.Errorf("compiler path diverged from legacy:\n  legacy:   %+v\n  compiler: %+v", want, got)
	}
}
