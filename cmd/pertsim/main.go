// Command pertsim runs one single-bottleneck scenario and reports the
// paper's four panels (queue, drops, utilization, fairness) plus latency
// percentiles, optionally emitting a packet trace and a queue-length time
// series.
//
// Examples:
//
//	pertsim -scheme PERT -bw 50e6 -rtt 60ms -flows 20 -web 50 -dur 60s
//	pertsim -config scenario.json -trace pkts.tr -qseries queue.csv
//	pertsim -config mixed.json              # schema v2: any topology/groups
//	pertsim -config mixed.json -validate    # check a scenario without running
//	pertsim -config mixed.json -cache-dir results/cache   # replay if committed
//	pertsim -scheme Vegas -json     # one-row table in the stable JSON schema
//	pertsim -loss 0.01 -reorder 0.001 -dup 0.0005   # injected wire faults
//
// A -config file may use either the legacy flat dumbbell schema or scenario
// schema v2 (a "topology"/"groups" object — see EXPERIMENTS.md); v2 files
// run through the scenario compiler and may mix schemes and templates. V2
// runs execute under the harness, so they honor -timeout, -stall-window,
// and the content-addressed result cache (-cache-dir): a committed run
// replays instantly, byte-identical tables included.
package main

import (
	"bufio"
	"bytes"
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
	config := fs.String("config", "", "load the scenario from a JSON file (overrides topology/traffic flags); legacy flat schema or scenario schema v2")
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
	spec := experiments.DumbbellSpec{
		Seed:         shared.Seed(),
		Bandwidth:    *bw,
		Flows:        *flows,
		ReverseFlows: *revFlows,
		WebSessions:  *web,
		BufferPkts:   *buffer,
		Duration:     sim.Time(*dur),
		MeasureFrom:  sim.Time(*warm),
		MeasureUntil: sim.Time(*dur),
		StartWindow:  sim.Time(*warm) / 2,
		AccessJitter: sim.Time(*jitter),
		LossRate:     *loss,
		DupRate:      *dup,
		ReorderRate:  *reorder,
		ReorderExtra: sim.Time(*reorderExtra),
	}
	if *rtts != "" {
		for _, s := range strings.Split(*rtts, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(stderr, "pertsim: bad -rtts entry %q: %v\n", s, err)
				return 2
			}
			spec.RTTs = append(spec.RTTs, sim.Time(d))
		}
	} else {
		spec.RTTs = []sim.Duration{sim.Time(*rtt)}
	}

	if *config != "" {
		raw, err := os.ReadFile(*config)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		if scenario.IsV2(raw) {
			return runV2(ctx, raw, shared, *validate, *jsonOut, stdout, stderr)
		}
		loaded, sch, err := experiments.LoadScenario(bytes.NewReader(raw))
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		if *validate {
			fmt.Fprintf(stdout, "pertsim: %s is a valid legacy dumbbell scenario (scheme %s, %d+%d flows, %d web)\n",
				*config, sch, loaded.Flows, loaded.ReverseFlows, loaded.WebSessions)
			return 0
		}
		spec = loaded
		*scheme = string(sch)
	}
	if shared.CacheRequested() {
		// Ad-hoc flag runs carry Go-only instrumentation hooks and are not
		// content-addressable; only schema-v2 configs run through the cache.
		fmt.Fprintln(stderr, "pertsim: -cache-dir requires a schema-v2 -config (see EXPERIMENTS.md)")
		return 2
	}
	if shared.IsolateRequested() {
		// Same restriction: only harness-routed (schema-v2) runs can re-exec
		// their cell in a worker process.
		fmt.Fprintln(stderr, "pertsim: -isolate requires a schema-v2 -config (see EXPERIMENTS.md)")
		return 2
	}
	// One rule set for flag and flat-file runs alike (the loader has already
	// applied it to a file): bad input is a one-line error, never a panic.
	if err := spec.Validate(experiments.Scheme(*scheme)); err != nil {
		fmt.Fprintf(stderr, "pertsim: %v\n", err)
		return 2
	}

	// closers flush and close every output file once the run is over; the
	// first error among them fails the command.
	var closers []func() error
	if *tracePath != "" {
		w, closeFn, err := createBuffered(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		closers = append(closers, closeFn)
		prev := spec.Instrument
		spec.Instrument = func(d *topo.Dumbbell) {
			if prev != nil {
				prev(d)
			}
			netem.NewTracer(w).Attach(d.Forward)
		}
	}
	if *qseriesPath != "" {
		w, closeFn, err := createBuffered(*qseriesPath)
		if err != nil {
			fmt.Fprintf(stderr, "pertsim: %v\n", err)
			return 1
		}
		closers = append(closers, closeFn)
		prev := spec.Instrument
		spec.Instrument = func(d *topo.Dumbbell) {
			if prev != nil {
				prev(d)
			}
			fmt.Fprintln(w, "t_s,queue_pkts")
			d.Net.Engine().Every(0, 10*sim.Millisecond, func(now sim.Time) {
				fmt.Fprintf(w, "%.3f,%d\n", now.Seconds(), d.Forward.Queue.Len())
			})
		}
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
		spec.Metrics = &experiments.MetricsSpec{Sink: sw, Interval: sim.Duration(shared.MetricsInterval())}
		closers = append(closers, func() error { return flushClose(sw, f) })
	}

	res := experiments.RunDumbbell(spec, experiments.Scheme(*scheme))
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
		if err := resultTable(spec, res).FprintJSON(stdout); err != nil {
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
func runV2(ctx context.Context, raw []byte, shared *cliconfig.Builder,
	validateOnly, jsonOut bool, stdout, stderr io.Writer) int {

	sp, err := scenario.Load(bytes.NewReader(raw))
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
func resultTable(spec experiments.DumbbellSpec, res experiments.DumbbellResult) *experiments.Table {
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
	t.AddRow(string(res.Scheme), fmt.Sprint(spec.Seed), fmt.Sprint(res.BufferPkts),
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
