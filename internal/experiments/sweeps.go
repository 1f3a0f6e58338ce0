package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"pert/internal/sim"
)

// sweepPoint is one x-axis value of a Section 4 figure.
type sweepPoint struct {
	label string
	spec  DumbbellSpec
}

// sweepUnits annotates the shared four-panel columns for the JSON schema.
func sweepUnits() map[string]string {
	return map[string]string{
		"avg_queue_pkts": "packets",
		"norm_queue":     "fraction of buffer",
		"drop_rate":      "fraction",
		"mark_rate":      "fraction",
		"utilization":    "fraction",
		"jain":           "index",
	}
}

// runSweep executes every (point, scheme) cell and formats the four panels
// the paper plots: average queue (normalized), drop rate, utilization, Jain
// index. Cells run on Workers(ctx) workers; each owns its engine and RNG, so
// rows are bit-identical at any worker count.
func runSweep(ctx context.Context, id, title, xlabel string, points []sweepPoint, schemes []Scheme) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		Header: []string{xlabel, "scheme", "avg_queue_pkts", "norm_queue", "drop_rate", "mark_rate", "utilization", "jain"},
		Units:  sweepUnits(),
	}
	type cell struct {
		label string
		s     Scheme
		spec  DumbbellSpec
	}
	// A -shards request propagates into every cell; the note below reports
	// what each cell's run actually did with it.
	requested := ShardsFrom(ctx, 0)
	cells := make([]cell, 0, len(points)*len(schemes))
	for _, pt := range points {
		for _, s := range schemes {
			spec := pt.spec
			spec.Shards = requested
			cells = append(cells, cell{pt.label, s, spec})
		}
	}
	// When the context carries a metrics config, each cell streams its time
	// series to <dir>/<id>/<label>_<scheme>.jsonl. Files are opened up front
	// (forEach workers cannot return errors) and closed after the sweep.
	var closers []func() error
	if cfg, ok := MetricsFrom(ctx); ok {
		for i := range cells {
			ms, closeFn, err := cfg.open(id, cells[i].label+"_"+string(cells[i].s))
			if err != nil {
				for _, c := range closers {
					_ = c()
				}
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			cells[i].spec.Metrics = ms
			closers = append(closers, closeFn)
		}
	}
	results := make([]DumbbellResult, len(cells))
	runErr := forEach(ctx, len(cells), func(i int) {
		results[i] = RunDumbbell(cells[i].spec, cells[i].s)
	})
	for _, closeFn := range closers {
		if err := closeFn(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", id, runErr)
	}
	for i, r := range results {
		t.AddRow(cells[i].label, string(cells[i].s), f2(r.AvgQueue), f3(r.NormQueue),
			sci(r.DropRate), sci(r.MarkRate), f3(r.Utilization), f3(r.Jain))
	}
	if requested > 1 {
		// Derived from what the runs report, not from the request: a cell
		// barred from the cut (shardBar) ran on one domain and says why.
		cut := 0
		var bars []string // distinct, in cell order
		for i, r := range results {
			if r.Domains > 1 {
				cut++
			} else if bar := cells[i].spec.shardBar(string(cells[i].s)); !slices.Contains(bars, bar) {
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

// Fig6 reproduces "Impact of bottleneck link bandwidth": bandwidth sweep at
// 60 ms RTT, flow count scaled with bandwidth so the link can be driven to
// full utilization at every point.
func Fig6(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	type bw struct {
		mbps  float64
		flows int
	}
	var sweep []bw
	if scale == Paper {
		sweep = []bw{{1, 2}, {10, 5}, {100, 50}, {500, 250}, {1000, 500}}
	} else {
		sweep = []bw{{1, 2}, {5, 3}, {20, 10}, {80, 40}}
	}
	var points []sweepPoint
	for i, b := range sweep {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%gMbps", b.mbps),
			spec: DumbbellSpec{
				Seed:      1000 + int64(i),
				Bandwidth: b.mbps * 1e6,
				RTTs:      []sim.Duration{ms(60)},
				Flows:     b.flows,
				Duration:  dur, MeasureFrom: from, MeasureUntil: until, StartWindow: sw,
			},
		})
	}
	t, err := runSweep(ctx, "fig6", "Impact of bottleneck link bandwidth (RTT 60 ms)", "bandwidth", points, AllSection4Schemes)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "flows scale with bandwidth as in the paper")
	return t, nil
}

// Fig7 reproduces "Impact of round trip delays": RTT sweep at fixed
// bandwidth and 50 flows (paper: 150 Mbps).
func Fig7(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	bwMbps, flows := 30.0, 10
	rtts := []float64{10, 30, 60, 150, 400}
	if scale == Paper {
		bwMbps, flows = 150, 50
		rtts = []float64{10, 30, 60, 100, 300, 1000}
	}
	var points []sweepPoint
	for i, r := range rtts {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%gms", r),
			spec: DumbbellSpec{
				Seed:      2000 + int64(i),
				Bandwidth: bwMbps * 1e6,
				RTTs:      []sim.Duration{ms(r)},
				Flows:     flows,
				Duration:  dur, MeasureFrom: from, MeasureUntil: until, StartWindow: sw,
			},
		})
	}
	return runSweep(ctx, "fig7", fmt.Sprintf("Impact of end-to-end RTT (%g Mbps, %d flows)", bwMbps, flows), "rtt", points, AllSection4Schemes)
}

// Fig8 reproduces "Impact of varying the number of long-term flows" (paper:
// 500 Mbps, 60 ms, 1..1000 flows).
func Fig8(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	bwMbps := 50.0
	counts := []int{1, 4, 16, 64, 256}
	if scale == Paper {
		bwMbps = 500
		counts = []int{1, 10, 100, 400, 1000}
	}
	var points []sweepPoint
	for i, n := range counts {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%d", n),
			spec: DumbbellSpec{
				Seed:      3000 + int64(i),
				Bandwidth: bwMbps * 1e6,
				RTTs:      []sim.Duration{ms(60)},
				Flows:     n,
				Duration:  dur, MeasureFrom: from, MeasureUntil: until, StartWindow: sw,
			},
		})
	}
	return runSweep(ctx, "fig8", fmt.Sprintf("Impact of number of long-term flows (%g Mbps, 60 ms)", bwMbps), "flows", points, AllSection4Schemes)
}

// Fig9 reproduces "Impact of web traffic": web-session sweep over a base of
// long-term flows (paper: 150 Mbps, 50 flows, 10..1000 sessions).
func Fig9(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	bwMbps, flows := 30.0, 10
	webs := []int{10, 50, 100, 200}
	if scale == Paper {
		bwMbps, flows = 150, 50
		webs = []int{10, 100, 500, 1000}
	}
	var points []sweepPoint
	for i, w := range webs {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%d", w),
			spec: DumbbellSpec{
				Seed:      4000 + int64(i),
				Bandwidth: bwMbps * 1e6,
				RTTs:      []sim.Duration{ms(60)},
				Flows:     flows, WebSessions: w,
				Duration: dur, MeasureFrom: from, MeasureUntil: until, StartWindow: sw,
			},
		})
	}
	return runSweep(ctx, "fig9", fmt.Sprintf("Impact of web traffic (%g Mbps, %d long flows)", bwMbps, flows), "web_sessions", points, AllSection4Schemes)
}

// Table1 reproduces "Impact of different RTTs": ten flows with RTTs
// 12..120 ms sharing one bottleneck with background web sessions; per-scheme
// normalized queue, drop rate, utilization and fairness.
func Table1(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
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
	for i, s := range []Scheme{PERT, SackDroptail, SackRED, Vegas} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := RunDumbbell(DumbbellSpec{
			Seed:      5000 + int64(i),
			Bandwidth: bwMbps * 1e6,
			RTTs:      rtts,
			Flows:     10, WebSessions: webs,
			Duration: dur, MeasureFrom: from, MeasureUntil: until, StartWindow: sw,
			Shards: ShardsFrom(ctx, 0),
		}, s)
		t.AddRow(string(s), f2(r.NormQueue), sci(r.DropRate), f2(100*r.Utilization), f2(r.Jain))
	}
	return t, nil
}

// Fig14 reproduces "Emulating PI at end-hosts": the Fig7 RTT sweep run with
// PERT/PI against router PI with ECN (plus PERT/RED for context).
func Fig14(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	dur, from, until, sw := scale.window()
	bwMbps, flows := 30.0, 10
	rtts := []float64{10, 30, 60, 150, 400}
	if scale == Paper {
		bwMbps, flows = 150, 50
		rtts = []float64{10, 30, 60, 100, 300, 1000}
	}
	var points []sweepPoint
	for i, r := range rtts {
		points = append(points, sweepPoint{
			label: fmt.Sprintf("%gms", r),
			spec: DumbbellSpec{
				Seed:      6000 + int64(i),
				Bandwidth: bwMbps * 1e6,
				RTTs:      []sim.Duration{ms(r)},
				Flows:     flows,
				Duration:  dur, MeasureFrom: from, MeasureUntil: until, StartWindow: sw,
			},
		})
	}
	return runSweep(ctx, "fig14", fmt.Sprintf("Emulating PI at end hosts (%g Mbps, %d flows, target delay 3 ms)", bwMbps, flows), "rtt", points, []Scheme{PERTPI, SackPI, PERT})
}
