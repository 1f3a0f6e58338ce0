// Command pertbench regenerates the paper's tables and figures, plus the
// extension experiments documented in EXPERIMENTS.md.
//
// Usage:
//
//	pertbench [-scale quick|paper] [-exp fig6,fig7,...|all] [-format text|csv]
//	          [-json] [-progress] [-parallel N] [-shards N] [-timeout D]
//	          [-stall-window D] [-cache-dir DIR] [-cache-fsck] [-isolate]
//	          [-retries N] [-metrics DIR] [-metrics-interval D]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Quick scale (default) shrinks bandwidth and duration while preserving the
// dimensionless shape of each experiment; paper scale runs the publication's
// exact parameters (much slower).
//
// -json emits one machine-readable report for the whole sweep (schema in
// EXPERIMENTS.md): per-run wall time, sim-event throughput, all tables (in
// runs[].tables), and error entries for runs that failed — a failing
// experiment does not stop the others. -progress streams per-run progress
// lines to stderr. Ctrl-C cancels the sweep between scenarios.
//
// -cache-dir points the sweep at a content-addressed result cache: cells
// already committed there replay without simulating (marked "cached" in the
// report), and a sweep killed mid-run resumes exactly where it stopped when
// rerun with the same flags. Multiple pertbench processes may share one
// cache directory and will split the sweep between them.
//
// -isolate runs each cell in a re-exec'd worker process so a crash loses one
// cell, not the sweep; -retries N re-runs failed cells with exponential
// backoff; -cache-fsck repairs a cache directory after a crash and exits.
// The first Ctrl-C drains the in-flight cell and writes a partial report; a
// second kills in-flight workers immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pert/internal/experiments"
	"pert/internal/harness"
	"pert/internal/harness/cliconfig"
)

func main() {
	harness.MaybeWorker() // never returns when spawned as a -isolate cell worker
	ctx, stop := harness.NotifyShutdown(context.Background())
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pertbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shared := cliconfig.New(fs)
	shared.ScaleFlag()
	shared.ExpFlag()
	shared.MetricsDirFlag()
	format := fs.String("format", "text", "table format: text or csv (the -json report carries the tables as JSON)")
	jsonReport := fs.Bool("json", false, "emit a single JSON report for the whole sweep (overrides -format)")
	progress := fs.Bool("progress", false, "stream per-run progress lines to stderr")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProfiles, err := shared.StartProfiles()
	if err != nil {
		fmt.Fprintf(stderr, "pertbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "pertbench: %v\n", err)
		}
	}()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if shared.FsckRequested() {
		return shared.RunFsck(stdout, stderr)
	}

	switch *format {
	case "text", "csv":
	default:
		fmt.Fprintf(stderr, "pertbench: unknown format %q\n", *format)
		return 2
	}
	spec, err := shared.Spec()
	if err != nil {
		fmt.Fprintf(stderr, "pertbench: %v\n", err)
		return 2
	}
	if !*jsonReport {
		// Outside report mode an unknown ID is a usage error; in report mode
		// the harness records it as an error entry and the sweep continues.
		for _, id := range spec.Experiments {
			if _, ok := experiments.ByID(id); !ok {
				fmt.Fprintf(stderr, "pertbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
		}
	}
	if *progress {
		spec.Sink = harness.NewWriterSink(stderr)
	}
	rep, runErr := harness.Run(ctx, spec)
	if runErr != nil && shared.CacheRequested() {
		fmt.Fprintln(stderr, "pertbench: sweep interrupted; finished cells are committed — rerun the same command to resume")
	}

	if *jsonReport {
		if err := rep.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "pertbench: %v\n", err)
			return 1
		}
		if runErr != nil {
			fmt.Fprintf(stderr, "pertbench: %v\n", runErr)
			return 1
		}
		if len(rep.Failed()) > 0 {
			for _, f := range rep.Failed() {
				fmt.Fprintf(stderr, "pertbench: %s: %s\n", f.ID, f.Error)
			}
			return 1
		}
		return 0
	}

	code := 0
	for _, rec := range rep.Runs {
		if rec.Error != "" {
			fmt.Fprintf(stderr, "pertbench: %s: %s\n", rec.ID, rec.Error)
			code = 1
			continue
		}
		for _, table := range rec.Tables {
			if *format == "csv" {
				table.FprintCSV(stdout)
			} else {
				table.Fprint(stdout)
			}
		}
		if *format == "text" {
			if rec.Cached {
				fmt.Fprintf(stdout, "[%s replayed from cache]\n\n", rec.ID)
				continue
			}
			wall := time.Duration(rec.WallSeconds * float64(time.Second))
			fmt.Fprintf(stdout, "[%s completed in %v]\n\n", rec.ID, wall.Round(time.Millisecond))
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "pertbench: %v\n", runErr)
		return 1
	}
	return code
}
