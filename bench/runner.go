package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pert/internal/harness"
	"pert/internal/scenario"
)

// warmupSimSec is the simulated length the set-up's warm-up rep cuts the
// cells to.
const warmupSimSec = 4

// repOpts shape one rep.
type repOpts struct {
	tmpRoot string  // parent of the rep's temp cache and series dirs
	sanity  bool    // apply the workload's sanity checks (full-size cells only)
	series  bool    // collect time series (the obs overhead rep)
	spans   *tracer // nil except on the spans rep
	docs    [][]byte
}

// cellRun is the outcome of one harness.Run call.
type cellRun struct {
	pass, cell int
	rec        harness.RunRecord
	digest     string // SHA-256 of the rendered tables
	recordJSON int    // bytes of the record as the cache stores it (spans rep only)
	fail       string // why this cell counts as failed; "" = ok
}

// rep is one pass over all of a workload's cells and passes.
type rep struct {
	wallS, cpuS  float64
	mallocs      uint64
	allocBytes   uint64
	events       uint64 // simulated events: cells that really ran, replays excluded
	gcCycles     uint32
	gcPauseNs    uint64
	hits, misses int // cache lookups over the rep
	retries      int
	passes       []passStat
	cells        []cellRun
}

// passStat is one pass's share of a rep.
type passStat struct {
	wallS        float64
	hits, misses int
}

// cpuSeconds is the user+system CPU time of this process and of the
// children it has waited for (the isolated workers).
func cpuSeconds() float64 {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total.Seconds()
}

// runRep executes every pass of the workload over the given cells once and
// measures the whole rep from outside. Temp directories are created before
// and removed after the measured region.
func runRep(ctx context.Context, w workload, specs []scenario.Spec, o repOpts) (rep, error) {
	var r rep
	tmp, err := os.MkdirTemp(o.tmpRoot, "rep-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(tmp)

	runtime.GC() // every rep starts from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	cacheDir := ""
	for pi, p := range w.passes {
		switch p.cache {
		case "":
			cacheDir = ""
		case "fresh":
			cacheDir = filepath.Join(tmp, "cache-"+p.name)
		}
		pt0, hits0, misses0 := time.Now(), r.hits, r.misses
		for ci := range specs {
			rs := harness.RunSpec{Scenario: &specs[ci], Workers: 1}
			if cacheDir != "" {
				rs.Cache = harness.CachePolicy{Dir: cacheDir}
				rs.Isolate = p.isolate
			}
			if o.series {
				rs.MetricsDir = filepath.Join(tmp, "series")
			}
			var c cellRun
			if o.spans != nil {
				o.spans.req = fmt.Sprintf("%s/%d", p.name, ci)
				c = spanCell(ctx, o.spans, rs, o.docs[ci], filepath.Join(tmp, "scratch-cache"), &r)
			} else {
				c = runCell(ctx, rs, &r)
			}
			c.pass, c.cell = pi, ci
			r.cells = append(r.cells, c)
		}
		r.passes = append(r.passes, passStat{since(pt0), r.hits - hits0, r.misses - misses0})
	}
	r.wallS = since(t0)
	r.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	checkRep(w, &r, o.sanity)
	return r, ctx.Err()
}

// runCell is one cell through the harness: the call `pertsim -config` makes.
func runCell(ctx context.Context, rs harness.RunSpec, r *rep) cellRun {
	var c cellRun
	report, err := harness.Run(ctx, rs)
	if err != nil {
		c.fail = err.Error()
		return c
	}
	r.hits += report.CacheHits
	r.misses += report.CacheMisses
	r.retries += report.Retries
	c.rec = report.Runs[0]
	if !c.rec.Cached {
		r.events += c.rec.SimEvents
	}
	switch {
	case c.rec.Status != harness.StatusOK:
		c.fail = fmt.Sprintf("status %s: %s", c.rec.Status, c.rec.Error)
	case c.rec.Cached && report.SimEvents != 0:
		c.fail = fmt.Sprintf("replayed cell simulated %d events", report.SimEvents)
	case len(c.rec.Tables) != 1:
		c.fail = fmt.Sprintf("%d tables, want 1", len(c.rec.Tables))
	default:
		var buf bytes.Buffer
		c.rec.Tables[0].Fprint(&buf)
		sum := sha256.Sum256(buf.Bytes())
		c.digest = hex.EncodeToString(sum[:])
	}
	return c
}

// checkRep applies the rules that hold within one rep: the workload's
// sanity check on every first-pass table, a reuse pass must replay every
// cell, and every later pass must reproduce the first pass's tables.
func checkRep(w workload, r *rep, sanity bool) {
	for i := range r.cells {
		c := &r.cells[i]
		if c.fail != "" {
			continue
		}
		switch {
		case c.pass == 0:
			if sanity {
				if err := w.check(c.rec.Tables[0]); err != nil {
					c.fail = "sanity: " + err.Error()
				}
			}
		case w.passes[c.pass].cache == "reuse" && !c.rec.Cached:
			c.fail = "warm pass missed the cache"
		case r.cells[c.cell].digest != c.digest:
			c.fail = fmt.Sprintf("%s pass table differs from the %s pass", w.passes[c.pass].name, w.passes[0].name)
		}
	}
}

// checkDeterminism fails every cell whose event count or table differs from
// the same cell of the first rep: same seed, same simulated statistics.
func checkDeterminism(reps []rep) {
	for ri := 1; ri < len(reps); ri++ {
		for i := range reps[ri].cells {
			c, first := &reps[ri].cells[i], reps[0].cells[i]
			if c.fail != "" || first.fail != "" {
				continue
			}
			if c.rec.SimEvents != first.rec.SimEvents || c.digest != first.digest {
				c.fail = fmt.Sprintf("rep %d disagrees with rep 0: %d events vs %d, table %.12s vs %.12s",
					ri, c.rec.SimEvents, first.rec.SimEvents, c.digest, first.digest)
			}
		}
	}
}

// setup is what a run does before its first timed rep: generate the cells
// from the seed, load and validate them, and run one warm-up rep of the same
// cells cut short. It returns the full-size cells.
func setup(ctx context.Context, w workload, seed int64, tmpRoot string) (specs []scenario.Spec, docs [][]byte, err error) {
	specs, docs, err = loadCells(w.cells(seed, w.simSeconds))
	if err != nil {
		return nil, nil, err
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	short, _, err := loadCells(w.cells(seed, min(warmupSimSec, w.simSeconds)))
	if err != nil {
		return nil, nil, err
	}
	warm, err := runRep(ctx, w, short, repOpts{tmpRoot: tmpRoot})
	if err != nil {
		return nil, nil, err
	}
	for _, c := range warm.cells {
		if c.fail != "" {
			return nil, nil, fmt.Errorf("warm-up: pass %s cell %d: %s", w.passes[c.pass].name, c.cell, c.fail)
		}
	}
	return specs, docs, nil
}

// outcome collects what a run reports besides its metrics.
type outcome struct {
	reps      int
	attempted int
	failures  []string // one line per failed cell execution
	simDigest string
}

// tally folds the reps' cells into attempted/failed counts and the
// workload's sim_digest (the first rep's first-pass tables).
func tally(w workload, reps []rep) outcome {
	out := outcome{reps: len(reps)}
	h := sha256.New()
	for ri, r := range reps {
		for _, c := range r.cells {
			out.attempted++
			if c.fail != "" {
				out.failures = append(out.failures,
					fmt.Sprintf("rep %d pass %s cell %d: %s", ri, w.passes[c.pass].name, c.cell, c.fail))
			}
			if ri == 0 && c.pass == 0 {
				h.Write([]byte(c.digest))
			}
		}
	}
	out.simDigest = hex.EncodeToString(h.Sum(nil))
	return out
}

// runUntraced is the --trace 0 run: the end-to-end metrics, measured with no
// span, profile or counter of the benchmark's own switched on.
func runUntraced(ctx context.Context, w workload, seed int64, pl plan, tmpRoot string) (map[string]sample, outcome, error) {
	var specs []scenario.Spec
	var setupS []float64
	for i := 0; i < pl.setups; i++ {
		t0 := time.Now()
		var err error
		if specs, _, err = setup(ctx, w, seed, tmpRoot); err != nil {
			return nil, outcome{}, err
		}
		setupS = append(setupS, since(t0))
	}

	var reps []rep
	for t0 := time.Now(); len(reps) < pl.minReps || since(t0) < pl.seconds; {
		r, err := runRep(ctx, w, specs, repOpts{tmpRoot: tmpRoot, sanity: pl.sanity})
		if err != nil {
			return nil, outcome{}, err
		}
		reps = append(reps, r)
	}
	checkDeterminism(reps)

	m := map[string]sample{
		"setup_s":  medianOf(setupS),
		"wall_s":   medianOf(perRep(reps, repWall)),
		"cpu_s":    medianOf(perRep(reps, func(r rep) float64 { return r.cpuS })),
		"mallocs":  medianOf(perRep(reps, repMallocs)),
		"alloc_mb": medianOf(perRep(reps, func(r rep) float64 { return float64(r.allocBytes) / 1e6 })),
	}
	return m, tally(w, reps), nil
}

// perRep reads one measurement off every rep.
func perRep(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func repWall(r rep) float64    { return r.wallS }
func repMallocs(r rep) float64 { return float64(r.mallocs) }

// sample is one reported metric value; Values are the per-rep (or per-set-up)
// measurements behind a median, kept for -compare's spread test.
type sample struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values,omitempty"`
}

func medianOf(xs []float64) sample { return sample{Value: median(xs), Values: xs} }

func scalar(v float64) sample { return sample{Value: v} }

// median of a non-empty slice; the input is not modified.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile of an ascending slice, interpolating linearly between the closest
// ranks; 0 for an empty one.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	h := q * float64(len(asc)-1)
	i := int(h)
	if i+1 >= len(asc) {
		return asc[len(asc)-1]
	}
	return asc[i] + (h-float64(i))*(asc[i+1]-asc[i])
}
