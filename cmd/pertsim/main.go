// Command pertsim runs one scenario. Its flags describe one Section 4
// dumbbell cell and report the paper's four panels (queue, drops,
// utilization, fairness) plus latency percentiles, optionally emitting a
// packet trace, a queue-length time series and the full metrics series.
//
// Examples:
//
//	pertsim -scheme PERT -bw 50e6 -rtt 60ms -flows 20 -web 50 -dur 60s
//	pertsim -flows 8 -trace pkts.tr -qseries queue.csv
//	pertsim -config mixed.json              # schema v2: any topology/groups
//	pertsim -config mixed.json -validate    # check a scenario without running
//	pertsim -config mixed.json -cache-dir results/cache   # replay if committed
//	pertsim -scheme Vegas -json     # one-row table in the stable JSON schema
//	pertsim -loss 0.01 -reorder 0.001 -dup 0.0005   # injected wire faults
//
// A -config file is a scenario schema v2 document (a "topology"/"groups"
// object — see EXPERIMENTS.md); it runs through the scenario compiler and
// may mix schemes and templates. Config runs execute under the harness, so
// they honor -shards, -timeout, -stall-window, -retries, -isolate and the
// content-addressed result cache (-cache-dir): a committed run replays
// instantly, byte-identical tables included. A flag run rejects those
// harness flags, and a -config run rejects the flags that describe a flag
// run (the dumbbell, its traffic, its seed, and the -trace, -qseries and
// -metrics outputs with -metrics-interval).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pert/internal/experiments"
	"pert/internal/harness"
	"pert/internal/harness/cliconfig"
	"pert/internal/netem"
	"pert/internal/obs"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/topo"
)

func main() {
	harness.MaybeWorker() // never returns when spawned as a -isolate cell worker
	ctx, stop := harness.NotifyShutdown(context.Background())
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pertsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shared := cliconfig.New(fs)
	shared.SeedFlag(1)
	scheme := fs.String("scheme", "PERT", strings.Join(scenario.Names(), " | "))
	bw := fs.Float64("bw", 50e6, "bottleneck bandwidth, bits/s")
	rtt := fs.Duration("rtt", 60*time.Millisecond, "end-to-end propagation RTT (comma list via -rtts overrides)")
	rtts := fs.String("rtts", "", "comma-separated RTT list for heterogeneous flows, e.g. 12ms,24ms,36ms")
	flows := fs.Int("flows", 10, "forward long-term flows")
	revFlows := fs.Int("reverse", 0, "reverse long-term flows")
	web := fs.Int("web", 0, "forward web sessions")
	buffer := fs.Int("buffer", 0, "bottleneck buffer in packets (0 = BDP with 2*flows floor)")
	dur := fs.Duration("dur", 60*time.Second, "simulated duration")
	warm := fs.Duration("warm", 15*time.Second, "measurement window start")
	jitter := fs.Duration("jitter", 0, "uniform per-packet access-link delay jitter bound")
	loss := fs.Float64("loss", 0, "non-congestive wire-loss probability on the bottleneck, [0,1)")
	dup := fs.Float64("dup", 0, "packet duplication probability on the bottleneck, [0,1)")
	reorder := fs.Float64("reorder", 0, "packet reordering probability on the bottleneck, [0,1)")
	reorderExtra := fs.Duration("reorder-extra", 5*time.Millisecond, "extra holding delay bound for reordered packets")
	jsonOut := fs.Bool("json", false, "emit the result as a one-row JSON table (schema in EXPERIMENTS.md)")
	config := fs.String("config", "", "run a scenario schema v2 JSON file instead of the flag-described dumbbell (see EXPERIMENTS.md)")
	validate := fs.Bool("validate", false, "with -config: parse and validate the scenario, print its summary, and exit without running")
	tracePath := fs.String("trace", "", "write an ns-2-style packet trace of the bottleneck to this file")
	qseriesPath := fs.String("qseries", "", "write a queue-length time series (CSV) to this file")
	metricsPath := fs.String("metrics", "", "write the run's full time series (queue, per-flow cwnd/srtt, PERT signal) to this file; .csv suffix selects CSV, anything else JSONL (schema in EXPERIMENTS.md)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProfiles, err := shared.StartProfiles()
	if err != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
		}
	}()
	if *config != "" {
		// The scenario file describes the whole run; a flag-run flag beside
		// it would be silently ignored, so it is a usage error.
		var flagRun []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scheme", "seed", "bw", "rtt", "rtts", "flows", "reverse", "web", "buffer", "dur", "warm",
				"jitter", "loss", "dup", "reorder", "reorder-extra", "trace", "qseries", "metrics", "metrics-interval":
				flagRun = append(flagRun, "-"+f.Name)
			}
		})
		if len(flagRun) > 0 {
			fmt.Fprintf(stderr, "pertsim: %s apply to flag runs only, not to a -config scenario\n", strings.Join(flagRun, ", "))
			return 2
		}
	}
	if !experiments.Scheme(*scheme).Known() {
		fmt.Fprintf(stderr, "pertsim: unknown scheme %q (known: %s)\n", *scheme, strings.Join(scenario.Names(), ", "))
		return 2
	}
	if *validate && *config == "" {
		fmt.Fprintln(stderr, "pertsim: -validate requires -config")
		return 2
	}
	if shared.FsckRequested() {
		return shared.RunFsck(stdout, stderr)
	}
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		defer f.Close()
		return runV2(ctx, f, shared, *validate, *jsonOut, stdout, stderr)
	}
	if shared.CacheRequested() {
		// Ad-hoc flag runs carry Go-only instrumentation hooks and are not
		// content-addressable; only schema-v2 configs run through the cache.
		fmt.Fprintln(stderr, "pertsim: -cache-dir requires a schema-v2 -config (see EXPERIMENTS.md)")
		return 2
	}
	// Same restriction for the harness's sweep mechanics: a flag run is one
	// in-process cell on the serial engine, so none of them would apply.
	var harnessOnly []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "isolate", "shards", "parallel", "timeout", "stall-window", "retries":
			harnessOnly = append(harnessOnly, "-"+f.Name)
		}
	})
	if len(harnessOnly) > 0 {
		fmt.Fprintf(stderr, "pertsim: %s requires a schema-v2 -config (see EXPERIMENTS.md)\n", strings.Join(harnessOnly, ", "))
		return 2
	}

	// The flags describe one Section 4 cell: forward, reverse and web groups
	// in that order, and the forward bottleneck's fault rule.
	rttList := []sim.Duration{sim.Time(*rtt)}
	if *rtts != "" {
		rttList = nil
		for _, s := range strings.Split(*rtts, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(stderr, "pertsim: bad -rtts entry %q: %v\n", s, err)
				return 2
			}
			rttList = append(rttList, sim.Time(d))
		}
	}
	startWindow := sim.Time(*warm) / 2
	spec := scenario.Spec{
		Seed: shared.Seed(),
		Topology: scenario.TopologySpec{
			Template:     scenario.DumbbellTemplate,
			Bandwidth:    *bw,
			RTTs:         rttList,
			BufferPkts:   *buffer,
			AccessJitter: sim.Time(*jitter),
			AQM:          *scheme,
		},
		Links: []scenario.LinkRule{{
			Link:         "forward",
			LossRate:     *loss,
			DupRate:      *dup,
			ReorderRate:  *reorder,
			ReorderExtra: sim.Time(*reorderExtra),
		}},
		Groups: []scenario.FlowGroupSpec{
			{Label: "fwd", Scheme: *scheme, Count: *flows, From: "left", To: "right", StartWindow: startWindow},
			{Label: "rev", Scheme: *scheme, Count: *revFlows, From: "right", To: "left", StartWindow: startWindow},
			{Label: "web", Scheme: *scheme, Count: *web, From: "left", To: "right", Traffic: scenario.Web, StartWindow: startWindow},
		},
		Duration:     sim.Time(*dur),
		MeasureFrom:  sim.Time(*warm),
		MeasureUntil: sim.Time(*dur),
	}
	// Bad input is a one-line error, never a panic.
	err = experiments.CheckCell(spec)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", err)
		return 2
	}

	// closers flush and close every output file once the run is over; the
	// first error among them fails the command. hooks run, in order, on the
	// built topology before traffic starts.
	var closers []func() error
	var hooks []func(*topo.Dumbbell)
	var at experiments.Attachments
	if *tracePath != "" {
		w, closeFn, err := createBuffered(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		closers = append(closers, closeFn)
		hooks = append(hooks, func(d *topo.Dumbbell) { netem.NewTracer(w).Attach(d.Forward) })
	}
	if *qseriesPath != "" {
		w, closeFn, err := createBuffered(*qseriesPath)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		closers = append(closers, closeFn)
		hooks = append(hooks, func(d *topo.Dumbbell) {
			fmt.Fprintln(w, "t_s,queue_pkts")
			d.Net.Engine().Every(0, 10*sim.Millisecond, func(now sim.Time) {
				fmt.Fprintf(w, "%.3f,%d\n", now.Seconds(), d.Forward.Queue.Len())
			})
		})
	}

	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		var sw *obs.SeriesWriter
		if strings.HasSuffix(*metricsPath, ".csv") {
			sw = obs.NewCSVWriter(f)
		} else {
			sw = obs.NewJSONLWriter(f)
		}
		at.Metrics = &experiments.MetricsSpec{Sink: sw, Interval: sim.Duration(shared.MetricsInterval())}
		closers = append(closers, func() error { return flushClose(sw, f) })
	}

	if len(hooks) > 0 {
		at.Instrument = func(d *topo.Dumbbell) {
			for _, h := range hooks {
				h(d)
			}
		}
	}
	res := experiments.RunDumbbell(spec, at)
	var closeErr error
	for _, c := range closers {
		if err := c(); closeErr == nil {
			closeErr = err
		}
	}
	if closeErr != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", closeErr)
		return 1
	}
	if *jsonOut {
		if err := resultTable(spec.Seed, res).FprintJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "scheme         %s\n", res.Scheme)
	fmt.Fprintf(stdout, "buffer         %d packets\n", res.BufferPkts)
	fmt.Fprintf(stdout, "avg queue      %.2f packets (%.3f of buffer)\n", res.AvgQueue, res.NormQueue)
	fmt.Fprintf(stdout, "sojourn p50    %.2f ms\n", res.DelayP50*1000)
	fmt.Fprintf(stdout, "sojourn p99    %.2f ms\n", res.DelayP99*1000)
	fmt.Fprintf(stdout, "drop rate      %.3g\n", res.DropRate)
	fmt.Fprintf(stdout, "mark rate      %.3g\n", res.MarkRate)
	fmt.Fprintf(stdout, "utilization    %.3f\n", res.Utilization)
	fmt.Fprintf(stdout, "jain fairness  %.3f\n", res.Jain)
	return 0
}

// runV2 handles a schema-v2 config: validate (and stop, if asked), then run
// it as a one-cell harness sweep — which is what routes single pertsim runs
// through the content-addressed result cache and the watchdogs — and render
// the standard panels from the report.
func runV2(ctx context.Context, doc io.Reader, shared *cliconfig.Builder,
	validateOnly, jsonOut bool, stdout, stderr io.Writer) int {

	sp, err := scenario.Load(doc)
	if err != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", err)
		return 1
	}
	spec, err := shared.Spec()
	if err != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", err)
		return 2
	}
	if spec.Shards > 0 {
		// The flag overrides the document's shard count (-shards 1 forces a
		// sharded file serial; 0 means unset, keep the file's value). It
		// folds into the scenario spec itself — the canonicalized spec is
		// what the cache key hashes — and the merged spec must re-validate
		// (shard-safety is stricter than the serial rules the file was
		// loaded under). This happens before -validate so that "validate
		// with -shards N" answers the question actually being asked.
		sp.Shards = spec.Shards
		spec.Shards = 0
		if err := sp.Validate(); err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 2
		}
	}
	if validateOnly {
		name := sp.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(stdout, "pertsim: %s is a valid v2 scenario (%s, %d groups, %d link rules)\n",
			name, sp.Topology.Template, len(sp.Groups), len(sp.Links))
		return 0
	}
	spec.Scenario = &sp
	rep, err := harness.Run(ctx, spec)
	if err != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", err)
		return 1
	}
	if len(rep.Runs) == 0 {
		fmt.Fprintln(stderr, "pertsim: no run produced")
		return 1
	}
	rec := rep.Runs[len(rep.Runs)-1]
	if rec.Error != "" {
		fmt.Fprintf(stderr, "pertsim: %s\n", rec.Error)
		return 1
	}
	if len(rec.Tables) == 0 {
		fmt.Fprintln(stderr, "pertsim: run produced no table")
		return 1
	}
	t := rec.Tables[0]
	if jsonOut {
		if err := t.FprintJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		return 0
	}
	t.Fprint(stdout)
	if rec.Cached && len(rec.CacheKey) >= 12 {
		fmt.Fprintf(stderr, "pertsim: replayed from cache (%s)\n", rec.CacheKey[:12])
	}
	return 0
}

// resultTable renders one scenario result in the stable JSON table schema,
// so single runs feed the same plotting pipelines as pertbench sweeps.
func resultTable(seed int64, res experiments.DumbbellResult) *experiments.Table {
	t := &experiments.Table{
		ID:    "pertsim",
		Title: "Single-bottleneck scenario result",
		Header: []string{"scheme", "seed", "buffer_pkts", "avg_queue_pkts", "norm_queue",
			"delay_p50_ms", "delay_p99_ms", "drop_rate", "mark_rate", "utilization", "jain"},
		Units: map[string]string{
			"buffer_pkts":    "packets",
			"avg_queue_pkts": "packets",
			"norm_queue":     "fraction of buffer",
			"delay_p50_ms":   "ms",
			"delay_p99_ms":   "ms",
			"drop_rate":      "fraction",
			"mark_rate":      "fraction",
			"utilization":    "fraction",
			"jain":           "index",
		},
	}
	t.AddRow(string(res.Scheme), fmt.Sprint(seed), fmt.Sprint(res.BufferPkts),
		fmt.Sprintf("%.2f", res.AvgQueue), fmt.Sprintf("%.3f", res.NormQueue),
		fmt.Sprintf("%.2f", res.DelayP50*1000), fmt.Sprintf("%.2f", res.DelayP99*1000),
		fmt.Sprintf("%.3g", res.DropRate), fmt.Sprintf("%.3g", res.MarkRate),
		fmt.Sprintf("%.3f", res.Utilization), fmt.Sprintf("%.3f", res.Jain))
	return t
}

// createBuffered opens path for writing with a buffer; the returned func
// flushes and closes, and reports the first write, flush or close error.
func createBuffered(path string) (io.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return w, func() error { return flushClose(w, f) }, nil
}

// flushClose flushes w into f and closes f, returning the first error.
func flushClose(w interface{ Flush() error }, f *os.File) error {
	err := w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
