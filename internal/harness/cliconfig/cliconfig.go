// Package cliconfig is the shared flag-to-RunSpec builder for the CLIs:
// cmd/pertbench and cmd/pertsim register the same sweep-mechanics and cache
// flags here instead of duplicating the definitions, and both compile their
// parsed flags into the one canonical harness.RunSpec. Binary-specific
// flags (output formats, trace files) stay in the binaries.
package cliconfig

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"pert/internal/cache"
	"pert/internal/harness"
)

// Builder registers the shared harness flags on a FlagSet and, after
// parsing, compiles them into a harness.RunSpec. The optional *Flag methods
// opt a binary into flags it supports; they must be called before Parse.
type Builder struct {
	fs *flag.FlagSet

	parallel        *int
	shards          *int
	timeout         *time.Duration
	stallWindow     *time.Duration
	cacheDir        *string
	cacheFsck       *bool
	isolate         *bool
	retries         *int
	metricsInterval *time.Duration
	cpuprofile      *string
	memprofile      *string

	scale      *string
	exp        *string
	metricsDir *string
	seed       *int64
}

// New registers the flags every harness CLI shares: sweep mechanics
// (-parallel, -shards, -timeout, -stall-window, -isolate, -retries), the
// result cache (-cache-dir, -cache-fsck), -metrics-interval, and the
// profilers.
func New(fs *flag.FlagSet) *Builder {
	b := &Builder{fs: fs}
	b.parallel = fs.Int("parallel", 0, "simulation worker count for sweeps (0 = all cores)")
	b.shards = fs.Int("shards", 0, "shard count for the parallel in-scenario engine where supported (0/1 = serial); unlike -parallel this changes per-shard RNG streams, so shards>1 runs cache separately from serial runs")
	b.timeout = fs.Duration("timeout", 0, "per-run timeout (0 = none); a timed-out run fails, the sweep continues")
	b.stallWindow = fs.Duration("stall-window", 0, "no-progress watchdog window (0 = off); a run whose sim counters stop advancing this long is marked stalled, the sweep continues")
	b.cacheDir = fs.String("cache-dir", "", "content-addressed result cache: hits replay without simulating, misses commit atomically; killed sweeps resume, concurrent processes share the directory")
	b.cacheFsck = fs.Bool("cache-fsck", false, "with -cache-dir: check and repair the cache (orphaned staging dirs, stale claims, corrupt record.json), print a summary, and exit instead of running a sweep")
	b.isolate = fs.Bool("isolate", false, "run each cell in its own worker process, so a crash (OOM kill, runtime fatal) loses one cell instead of the sweep")
	b.retries = fs.Int("retries", 0, "re-run cells that end error/timeout/stalled/crashed up to this many extra times, with exponential backoff from 500ms")
	b.metricsInterval = fs.Duration("metrics-interval", 0, "sampling period in sim time for -metrics (0 = 100ms)")
	b.cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	b.memprofile = fs.String("memprofile", "", "write an allocation profile to this file (go tool pprof)")
	return b
}

// ScaleFlag opts into -scale (quick/paper sweeps).
func (b *Builder) ScaleFlag() {
	b.scale = b.fs.String("scale", "quick", "experiment scale: quick or paper")
}

// ExpFlag opts into -exp (registry experiment selection).
func (b *Builder) ExpFlag() {
	b.exp = b.fs.String("exp", "all", "comma-separated experiment IDs (section2, fig5..fig14, table1, ext-*) or 'all'")
}

// MetricsDirFlag opts into the directory form of -metrics (per-cell series
// trees). Binaries with a file-based -metrics of their own must not call it.
func (b *Builder) MetricsDirFlag() {
	b.metricsDir = b.fs.String("metrics", "", "write per-cell JSONL time series under this directory (DIR/<exp>/<cell>.jsonl, or the cache's series/ trees with -cache-dir); schema in EXPERIMENTS.md")
}

// SeedFlag opts into -seed with the binary's default.
func (b *Builder) SeedFlag(def int64) {
	b.seed = b.fs.Int64("seed", def, "RNG seed")
}

// Spec compiles the parsed flags into a validated RunSpec. Call after
// fs.Parse; the error is user-facing (bad scale, negative count).
func (b *Builder) Spec() (harness.RunSpec, error) {
	spec := harness.RunSpec{
		Workers:         *b.parallel,
		Shards:          *b.shards,
		Timeout:         *b.timeout,
		StallWindow:     *b.stallWindow,
		MetricsInterval: *b.metricsInterval,
		Cache:           harness.CachePolicy{Dir: *b.cacheDir},
		Isolate:         *b.isolate,
		Retries:         *b.retries,
	}
	// RunSpec reads a Workers below 1 as "all cores", so -parallel is
	// range-checked here.
	if *b.parallel < 0 {
		return spec, fmt.Errorf("negative -parallel %d", *b.parallel)
	}
	if b.scale != nil {
		spec.Scale = *b.scale
	}
	if b.seed != nil {
		spec.Seed = *b.seed
	}
	if b.metricsDir != nil {
		spec.MetricsDir = *b.metricsDir
	}
	if b.exp != nil && *b.exp != "all" {
		for _, id := range strings.Split(*b.exp, ",") {
			spec.Experiments = append(spec.Experiments, strings.TrimSpace(id))
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// StartProfiles starts the profilers the flags requested; the returned stop
// function writes and closes them (see harness.StartProfiles).
func (b *Builder) StartProfiles() (func() error, error) {
	return harness.StartProfiles(*b.cpuprofile, *b.memprofile)
}

// Seed returns the parsed -seed value (the binary's default when the flag
// was not opted into).
func (b *Builder) Seed() int64 {
	if b.seed == nil {
		return 0
	}
	return *b.seed
}

// MetricsInterval returns the parsed -metrics-interval value for binaries
// that also consume it outside the harness (pertsim's file-based -metrics).
func (b *Builder) MetricsInterval() time.Duration { return *b.metricsInterval }

// CacheRequested reports whether the user pointed the run at a cache
// directory, so binaries whose code path cannot cache can reject the
// combination loudly instead of ignoring it.
func (b *Builder) CacheRequested() bool { return *b.cacheDir != "" }

// FsckRequested reports whether this invocation is a -cache-fsck repair run
// rather than a sweep.
func (b *Builder) FsckRequested() bool { return *b.cacheFsck }

// RunFsck opens the cache named by -cache-dir, repairs it with the harness's
// strict record validator, and prints the summary (plus one line per repair)
// to stdout. Returns the process exit code.
func (b *Builder) RunFsck(stdout, stderr io.Writer) int {
	if *b.cacheDir == "" {
		fmt.Fprintln(stderr, "-cache-fsck requires -cache-dir")
		return 2
	}
	store, err := cache.Open(*b.cacheDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep, err := store.Fsck(harness.ValidateRecord)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(stdout, p)
	}
	fmt.Fprintf(stdout, "cache %s: %s\n", store.Dir(), rep.Summary())
	return 0
}
