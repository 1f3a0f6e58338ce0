package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// cell is one independent seeded Section 4 run of a table: spec names a
// registered scheme, or its groups name none and at.CC is the controller.
// name labels the row and the series file; label is the cell's x-axis value,
// empty in a table that is not swept.
type cell struct {
	label, name string
	at          Attachments
	spec        scenario.Spec
}

// runCells is the one cell loop: it runs every cell on Workers(ctx) workers
// (each owns its engine and RNG, so rows are bit-identical at any worker
// count), adds row(i, result) to t for each cell i in order, and notes what a
// -shards request actually did. A -shards request propagates into every cell;
// under a metrics context each cell streams its time series to
// <dir>/<t.ID>/<label>_<name>.jsonl (just <name> when unswept).
func runCells(ctx context.Context, t *Table, cells []cell, row func(i int, r DumbbellResult) []string) (*Table, error) {
	requested := ShardsFrom(ctx, 0)
	for i := range cells {
		cells[i].spec.Shards = requested
	}
	// Series files are opened up front (forEach workers cannot return
	// errors) and closed after the sweep.
	var closers []func() error
	if cfg, ok := MetricsFrom(ctx); ok {
		for i, c := range cells {
			file := c.name
			if c.label != "" {
				file = c.label + "_" + c.name
			}
			ms, closeFn, err := cfg.open(t.ID, file)
			if err != nil {
				for _, closeFn := range closers {
					_ = closeFn()
				}
				return nil, fmt.Errorf("%s: %w", t.ID, err)
			}
			cells[i].at.Metrics = ms
			closers = append(closers, closeFn)
		}
	}
	results := make([]DumbbellResult, len(cells))
	runErr := forEach(ctx, len(cells), func(i int) {
		results[i] = RunDumbbell(cells[i].spec, cells[i].at)
	})
	for _, closeFn := range closers {
		if err := closeFn(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", t.ID, runErr)
	}
	for i, r := range results {
		t.AddRow(row(i, r)...)
	}
	if requested > 1 {
		// Derived from what the runs report, not from the request: a cell
		// barred from the cut (shardBar) ran on one domain and says why.
		cut := 0
		var bars []string // distinct, in cell order
		for i, r := range results {
			if r.Domains > 1 {
				cut++
			} else if bar := cells[i].at.shardBar(cells[i].spec); !slices.Contains(bars, bar) {
				bars = append(bars, bar)
			}
		}
		note := fmt.Sprintf("requested shards=%d: %d of %d cells ran on a dumbbell's 2 domains (see DESIGN.md §9)", requested, cut, len(cells))
		if cut < len(cells) {
			note += fmt.Sprintf("; %d ran on 1, barred by %s", len(cells)-cut, strings.Join(bars, ", "))
		}
		t.Notes = append(t.Notes, note)
	}
	return t, nil
}

// sweepPoint is one x-axis value of a Section 4 figure: a cell with no
// scheme yet.
type sweepPoint struct {
	label string
	spec  scenario.Spec
}

// runSweep runs every (point, scheme) cell and formats the four panels the
// paper plots: average queue (normalized), drop rate, utilization, Jain index.
func runSweep(ctx context.Context, id, title, xlabel string, points []sweepPoint, schemes []Scheme) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		Header: []string{xlabel, "scheme", "avg_queue_pkts", "norm_queue", "drop_rate", "mark_rate", "utilization", "jain"},
		Units: map[string]string{
			"avg_queue_pkts": "packets",
			"norm_queue":     "fraction of buffer",
			"drop_rate":      "fraction",
			"mark_rate":      "fraction",
			"utilization":    "fraction",
			"jain":           "index",
		},
	}
	cells := make([]cell, 0, len(points)*len(schemes))
	for _, pt := range points {
		for _, s := range schemes {
			cells = append(cells, cell{label: pt.label, name: string(s), spec: s.on(pt.spec)})
		}
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{cells[i].label, cells[i].name, f2(r.AvgQueue), f3(r.NormQueue),
			sci(r.DropRate), sci(r.MarkRate), f3(r.Utilization), f3(r.Jain)}
	})
}

// sweepAxis is a Section 4 sweep at one scale: the base scenario (bottleneck
// rate and long-flow count at 60 ms) and the x-axis values swept over it.
type sweepAxis struct {
	mbps  float64
	flows int
	xs    []float64
}

// sweepDef is one four-panel figure as data: which part of the cell the
// x-axis sets, over which values on which base at each scale, under which
// schemes. Point i runs at seed+i.
type sweepDef struct {
	xlabel       string
	title        func(sweepAxis) string
	seed         int64
	schemes      []Scheme
	quick, paper sweepAxis
	set          func(spec *scenario.Spec, x float64) (label string)
	notes        []string
}

// rttSweep is the RTT sweep at fixed bandwidth and flow count (paper:
// 150 Mbps, 50 flows) that Fig. 7 and Fig. 14 share; title is a format over
// (Mbps, flows).
func rttSweep(seed int64, schemes []Scheme, title string) sweepDef {
	return sweepDef{
		xlabel: "rtt", seed: seed, schemes: schemes,
		title: func(a sweepAxis) string { return fmt.Sprintf(title, a.mbps, a.flows) },
		quick: sweepAxis{30, 10, []float64{10, 30, 60, 150, 400}},
		paper: sweepAxis{150, 50, []float64{10, 30, 60, 100, 300, 1000}},
		set: func(spec *scenario.Spec, x float64) string {
			spec.Topology.RTTs = []sim.Duration{ms(x)}
			return fmt.Sprintf("%gms", x)
		},
	}
}

// sweepDefs are the four-panel figures: Figs. 6-9 of Section 4 and Fig. 14
// of Section 6.
var sweepDefs = map[string]sweepDef{
	// "Impact of bottleneck link bandwidth": flows scale with bandwidth (one
	// per 2 Mbps, at least two) so the link can be driven to full utilization
	// at every point.
	"fig6": {
		xlabel: "bandwidth", seed: 1000, schemes: AllSection4Schemes,
		title: func(sweepAxis) string { return "Impact of bottleneck link bandwidth (RTT 60 ms)" },
		quick: sweepAxis{xs: []float64{1, 5, 20, 80}},
		paper: sweepAxis{xs: []float64{1, 10, 100, 500, 1000}},
		set: func(spec *scenario.Spec, x float64) string {
			spec.Topology.Bandwidth = x * 1e6
			spec.Groups[fwdGroup].Count = max(2, int(math.Ceil(x/2)))
			return fmt.Sprintf("%gMbps", x)
		},
		notes: []string{"flows scale with bandwidth as in the paper"},
	},
	// "Impact of round trip delays".
	"fig7": rttSweep(2000, AllSection4Schemes, "Impact of end-to-end RTT (%g Mbps, %d flows)"),
	// "Impact of varying the number of long-term flows" (paper: 500 Mbps,
	// 60 ms, 1..1000 flows).
	"fig8": {
		xlabel: "flows", seed: 3000, schemes: AllSection4Schemes,
		title: func(a sweepAxis) string {
			return fmt.Sprintf("Impact of number of long-term flows (%g Mbps, 60 ms)", a.mbps)
		},
		quick: sweepAxis{mbps: 50, xs: []float64{1, 4, 16, 64, 256}},
		paper: sweepAxis{mbps: 500, xs: []float64{1, 10, 100, 400, 1000}},
		set: func(spec *scenario.Spec, x float64) string {
			spec.Groups[fwdGroup].Count = int(x)
			return fmt.Sprint(x)
		},
	},
	// "Impact of web traffic": web sessions over a base of long-term flows
	// (paper: 150 Mbps, 50 flows, 10..1000 sessions).
	"fig9": {
		xlabel: "web_sessions", seed: 4000, schemes: AllSection4Schemes,
		title: func(a sweepAxis) string {
			return fmt.Sprintf("Impact of web traffic (%g Mbps, %d long flows)", a.mbps, a.flows)
		},
		quick: sweepAxis{30, 10, []float64{10, 50, 100, 200}},
		paper: sweepAxis{150, 50, []float64{10, 100, 500, 1000}},
		set: func(spec *scenario.Spec, x float64) string {
			spec.Groups[webGroup].Count = int(x)
			return fmt.Sprint(x)
		},
	},
	// "Emulating PI at end-hosts": the Fig. 7 sweep run with PERT/PI against
	// router PI with ECN (plus PERT/RED for context).
	"fig14": rttSweep(6000, []Scheme{PERTPI, SackPI, PERT}, "Emulating PI at end hosts (%g Mbps, %d flows, target delay 3 ms)"),
}

// sweepFig is the Runner of the sweepDefs figure id.
func sweepFig(id string) Runner {
	return one(func(ctx context.Context, scale Scale) (*Table, error) {
		return sweepDefs[id].run(ctx, id, scale)
	})
}

// run executes the figure at a scale.
func (d sweepDef) run(ctx context.Context, id string, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	a := d.quick
	if scale == Paper {
		a = d.paper
	}
	points := make([]sweepPoint, len(a.xs))
	for i, x := range a.xs {
		spec := scale.dumbbell(d.seed+int64(i), a.mbps, a.flows)
		points[i] = sweepPoint{d.set(&spec, x), spec}
	}
	t, err := runSweep(ctx, id, d.title(a), d.xlabel, points, d.schemes)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, d.notes...)
	return t, nil
}

// Table1 reproduces "Impact of different RTTs": ten flows with RTTs
// 12..120 ms sharing one bottleneck with background web sessions; per-scheme
// normalized queue, drop rate, utilization and fairness.
func Table1(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	bwMbps, webs := 30.0, 20
	if scale == Paper {
		bwMbps, webs = 150, 100
	}
	rtts := make([]sim.Duration, 10)
	for i := range rtts {
		rtts[i] = ms(float64(12 * (i + 1)))
	}
	t := &Table{
		ID:     "table1",
		Title:  fmt.Sprintf("Flows with different RTTs (%g Mbps, 10 flows, RTTs 12..120 ms, %d web sessions)", bwMbps, webs),
		Header: []string{"scheme", "Q(norm)", "p", "U(%)", "F"},
		Units:  map[string]string{"Q(norm)": "fraction of buffer", "p": "fraction", "U(%)": "percent", "F": "index"},
	}
	schemes := []Scheme{PERT, SackDroptail, SackRED, Vegas}
	cells := make([]cell, len(schemes))
	for i, s := range schemes {
		spec := scale.dumbbell(5000+int64(i), bwMbps, 10)
		spec.Topology.RTTs, spec.Groups[webGroup].Count = rtts, webs
		cells[i] = cell{name: string(s), spec: s.on(spec)}
	}
	return runCells(ctx, t, cells, func(i int, r DumbbellResult) []string {
		return []string{cells[i].name, f2(r.NormQueue), sci(r.DropRate), pct(r.Utilization), f2(r.Jain)}
	})
}
