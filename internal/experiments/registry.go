package experiments

import "context"

// Runner produces the tables for one paper figure or table at a scale. Most
// experiments yield one table; Fig12 yields one per scheme and section2 one
// per analysis of its shared traces. Runners observe ctx between scenario
// launches and return an error instead of panicking on bad specs or
// cancellation.
type Runner func(ctx context.Context, scale Scale) ([]*Table, error)

// Experiment describes one registered evaluation artifact: a stable ID
// (section2, fig5..fig14, table1, ext-*), a human title, the scales it
// supports, and its runner. The ordered Experiments slice is the registry the
// harness and CLIs iterate.
type Experiment struct {
	ID     string
	Title  string
	Scales []Scale
	Run    Runner
}

// allScales marks experiments meaningful at both quick and paper scale
// (every current experiment; analytic ones accept either and ignore it).
var allScales = []Scale{Quick, Paper}

// one adapts a single-table entry point to a Runner.
func one(f func(context.Context, Scale) (*Table, error)) Runner {
	return func(ctx context.Context, s Scale) ([]*Table, error) {
		t, err := f(ctx, s)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Experiments is the ordered registry of every reproduced figure/table plus
// the extension experiments documented in EXPERIMENTS.md. The order is the
// presentation order: Section 2 first, then paper figures numerically,
// extensions alphabetically, table1 last (matching the committed results
// files).
var Experiments = []Experiment{
	{ID: "section2", Title: "Section 2 congestion prediction (Figs. 2-4, detection-margin sweep)", Scales: allScales, Run: runSection2},
	{ID: "fig5", Title: "PERT probabilistic response curve", Scales: allScales, Run: one(Fig5)},
	{ID: "fig6", Title: "Impact of bottleneck link bandwidth", Scales: allScales, Run: sweepFig("fig6")},
	{ID: "fig7", Title: "Impact of round trip delays", Scales: allScales, Run: sweepFig("fig7")},
	{ID: "fig8", Title: "Impact of the number of long-term flows", Scales: allScales, Run: sweepFig("fig8")},
	{ID: "fig9", Title: "Impact of web traffic", Scales: allScales, Run: sweepFig("fig9")},
	{ID: "fig11", Title: "Multiple bottleneck links (parking lot)", Scales: allScales, Run: one(Fig11)},
	{ID: "fig12", Title: "Response to sudden changes in responsive traffic", Scales: allScales, Run: runFig12},
	{ID: "fig13", Title: "Fluid-model stability (sampling bound and trajectories)", Scales: allScales, Run: runFig13},
	{ID: "fig14", Title: "Emulating PI at end hosts", Scales: allScales, Run: sweepFig("fig14")},
	{ID: "ext-aqm", Title: "Extension: end-host AQM emulations vs router AQMs", Scales: allScales, Run: one(ExtAQM)},
	{ID: "ext-coexist", Title: "Extension: co-existence with loss-based SACK", Scales: allScales, Run: one(ExtCoexist)},
	{ID: "ext-delaycc", Title: "Extension: delay-based congestion-avoidance lineage", Scales: allScales, Run: one(ExtDelayCC)},
	{ID: "ext-fct", Title: "Extension: web-object flow completion times", Scales: allScales, Run: one(ExtFCT)},
	{ID: "ext-flap", Title: "Extension: response to capacity changes and link flaps", Scales: allScales, Run: ExtFlap},
	{ID: "ext-highspeed", Title: "Extension: PERT over aggressive probing", Scales: allScales, Run: one(ExtHighSpeed)},
	{ID: "ext-hybrid", Title: "Extension: hybrid fluid/packet substrate at ISP scale", Scales: allScales, Run: one(ExtHybrid)},
	{ID: "ext-jitter", Title: "Extension: robustness to access-link delay jitter", Scales: allScales, Run: one(ExtJitter)},
	{ID: "ext-lossy", Title: "Extension: robustness to non-congestive random loss", Scales: allScales, Run: one(ExtLossy)},
	{ID: "ext-parkinglot-xl", Title: "Extension: 8-bottleneck parking lot on the sharded engine", Scales: allScales, Run: one(ExtParkingLotXL)},
	{ID: "ext-replicated", Title: "Extension: seed sensitivity with confidence intervals", Scales: allScales, Run: one(ExtReplicated)},
	{ID: "ext-stability", Title: "Extension: certified stability boundaries, PERT vs RED", Scales: allScales, Run: one(ExtStability)},
	{ID: "ext-validation", Title: "Extension: packet simulation vs fluid equilibrium", Scales: allScales, Run: one(ExtValidation)},
	{ID: "table1", Title: "Flows with different RTTs", Scales: allScales, Run: one(Table1)},
}

// runFig12 produces one table per Section 4 scheme.
func runFig12(ctx context.Context, s Scale) ([]*Table, error) {
	var out []*Table
	for _, scheme := range AllSection4Schemes {
		t, err := Fig12(ctx, s, scheme)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// runFig13 produces the sampling-bound table and the trajectory table.
func runFig13(ctx context.Context, s Scale) ([]*Table, error) {
	a, err := Fig13a(ctx, s)
	if err != nil {
		return nil, err
	}
	bcd, err := Fig13bcd(ctx, s)
	if err != nil {
		return nil, err
	}
	return []*Table{a, bcd}, nil
}

// ByID returns the registered experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the registered experiment IDs in registry (presentation)
// order.
func IDs() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.ID
	}
	return out
}
