package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"pert/internal/cache"
	"pert/internal/harness"
	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// The per-layer ledger: the --trace 1 run. Three sources feed it, all in
// this directory: spans around the calls the benchmark makes itself
// (spanCell), a counting run that reads the layers' own counters
// (countingRun), and profiled reps whose CPU samples are attributed to
// pert/internal packages (pprof.go) — plus the micro-drivers in drivers.go.

// layers are the packages that get a <layer>.cpu_share entry.
var layers = []string{"sim", "netem", "queue", "tcp", "core", "trafficgen", "stats", "fluid",
	"scenario", "cache", "harness"}

// spanCell runs one cell under spans. Before the real harness.Run it makes,
// itself, the calls the harness will make inside — load, validate, compile
// and spawn on a scratch engine that never runs, the cache key — and
// afterwards commits and reads back the cell's record in a scratch store, so
// each layer boundary has a span although nothing outside bench/ is
// instrumented.
func spanCell(ctx context.Context, tr *tracer, rs harness.RunSpec, doc []byte, scratchCache string, r *rep) cellRun {
	var c cellRun
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tr.span("cell", func() {
		var spec scenario.Spec
		var inst *scenario.Instance
		var key string
		var err error
		tr.span("scenario.load", func() { spec, err = scenario.Load(bytes.NewReader(doc)) })
		note(err)
		tr.span("scenario.validate", func() { err = spec.Validate() })
		note(err)
		tr.span("scenario.compile", func() {
			eng := sim.NewEngine(spec.Seed)
			inst, err = scenario.Compile(eng, netem.NewNetwork(eng), spec)
		})
		note(err)
		if inst != nil {
			tr.span("scenario.spawn", inst.Spawn)
		}
		tr.span("cache.key", func() { key, err = rs.ScenarioKey(harness.Version()) })
		note(err)

		name := "harness.run"
		if rs.Isolate {
			name = "harness.isolate_exec"
		}
		tr.span(name, func() { c = runCell(ctx, rs, r) })

		blob, err := json.Marshal(c.rec)
		note(err)
		c.recordJSON = len(blob)
		store, err := cache.Open(scratchCache)
		note(err)
		if firstErr != nil {
			return
		}
		tr.span("cache.claim_commit", func() {
			var claim *cache.Claim
			if claim, err = store.Claim(key); err == nil && claim != nil {
				_, err = claim.Commit(blob)
			}
		})
		note(err)
		tr.span("cache.get", func() {
			var ok bool
			if _, ok, err = store.Get(key); err == nil && !ok {
				err = fmt.Errorf("committed record %s not found", key)
			}
		})
		note(err)
		note(store.Evict(key))
	})
	if c.fail == "" && firstErr != nil {
		c.fail = "spans: " + firstErr.Error()
	}
	return c
}

// counts is what one counting run reads off the layers' own counters.
type counts struct {
	slices       int
	pendingSum   int
	pendingMax   int
	hops         uint64 // sum of Link.Stats.TxPackets
	drops, marks uint64
	retransmits  uint64 // long flows' Conn.Stats (web transfers are gone by the end)
	rtos         uint64
	early        uint64
	objects      uint64
	fluidSteps   uint64
	shardEvents  []uint64
}

func (c *counts) add(o counts) {
	c.slices += o.slices
	c.pendingSum += o.pendingSum
	c.pendingMax = max(c.pendingMax, o.pendingMax)
	c.hops += o.hops
	c.drops += o.drops
	c.marks += o.marks
	c.retransmits += o.retransmits
	c.rtos += o.rtos
	c.early += o.early
	c.objects += o.objects
	c.fluidSteps += o.fluidSteps
	for i, e := range o.shardEvents {
		if i == len(c.shardEvents) {
			c.shardEvents = append(c.shardEvents, 0)
		}
		c.shardEvents[i] += e
	}
}

// countingRun compiles, spawns and runs one cell with no monitor or auditor
// attached, in 100 ms slices of simulated time, sampling the pending-event
// set between slices and reading every counter at the end. The packet ledger
// must balance.
func countingRun(spec scenario.Spec) (counts, error) {
	var c counts
	n := spec.EffectiveShards()
	g := sim.NewShardGroup(n, spec.Seed)
	net := netem.NewNetwork(g.Engine(0))
	inst, err := scenario.Compile(g.Engine(0), net, spec)
	if err != nil {
		return c, err
	}
	if n > 1 {
		if err := net.Partition(g, inst.Topo.PartitionHint(n)); err != nil {
			return c, err
		}
	}
	inst.Spawn()
	c.shardEvents = make([]uint64, n)
	const slice = 100 * sim.Millisecond
	for t := slice; t <= spec.Duration; t += slice {
		g.Run(t)
		pending := 0
		for i := 0; i < n; i++ {
			pending += g.Engine(i).Pending()
		}
		c.slices++
		c.pendingSum += pending
		c.pendingMax = max(c.pendingMax, pending)
		for i, e := range g.EventCounts() {
			c.shardEvents[i] += e
		}
	}
	if err := net.Audit(); err != nil {
		return c, err
	}
	// The network does not list its links; every one is some node's link to
	// some other node.
	for _, a := range net.Nodes {
		for _, b := range net.Nodes {
			if l := a.LinkTo(b.ID); l != nil {
				c.hops += l.Stats.TxPackets
				c.drops += l.Stats.Drops
				c.marks += l.Stats.Marks
			}
		}
	}
	for _, grp := range inst.Groups {
		for _, f := range grp.Flows {
			c.retransmits += f.Conn.Stats.Retransmits
			c.rtos += f.Conn.Stats.RTOs
			c.early += f.Conn.Stats.EarlyResponses
		}
		for _, w := range grp.Webs {
			c.objects += w.Objects
		}
		if grp.Fluid != nil {
			// netem.AttachFluid integrates at its default 1 ms step and does
			// not export the stepper, so the step count is derived.
			c.fluidSteps += uint64(spec.Duration / sim.Millisecond)
		}
	}
	return c, nil
}

// profiledRep is runRep under runtime/pprof's CPU profiler.
func profiledRep(ctx context.Context, w workload, specs []scenario.Spec, o repOpts) (rep, []cpuSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return rep{}, nil, err
	}
	r, err := runRep(ctx, w, specs, o)
	pprof.StopCPUProfile()
	if err != nil {
		return r, nil, err
	}
	samples, err := parseCPUProfile(buf.Bytes())
	return r, samples, err
}

// runTraced is the --trace 1 run: every per-layer metric but the
// micro-drivers', which the caller adds. It spends about two thirds of the
// plan's seconds alternating untraced and profiled reps, then makes one rep under
// spans, one counting run per cell and the workload's extra reps.
func runTraced(ctx context.Context, w workload, seed int64, pl plan, tmpRoot, spansPath string) (map[string]sample, outcome, error) {
	specs, docs, err := setup(ctx, w, seed, tmpRoot)
	if err != nil {
		return nil, outcome{}, err
	}
	o := repOpts{tmpRoot: tmpRoot, sanity: pl.sanity}

	var plain, profiled []rep
	var samples []cpuSample
	for t0, i := time.Now(), 0; i < max(1, pl.minReps/2) || since(t0) < pl.seconds*2/3; i++ {
		// Alternate which side goes first so drift hits both alike.
		for _, prof := range []bool{i%2 == 1, i%2 == 0} {
			if !prof {
				r, err := runRep(ctx, w, specs, o)
				if err != nil {
					return nil, outcome{}, err
				}
				plain = append(plain, r)
				continue
			}
			r, s, err := profiledRep(ctx, w, specs, o)
			if err != nil {
				return nil, outcome{}, err
			}
			profiled = append(profiled, r)
			samples = append(samples, s...)
		}
	}

	tr := newTracer()
	so := o
	so.spans, so.docs = tr, docs
	spansRep, err := runRep(ctx, w, specs, so)
	if err != nil {
		return nil, outcome{}, err
	}
	spanErr := fillSelf(tr.spans)
	if err := tr.write(spansPath, w.name); err != nil {
		return nil, outcome{}, err
	}

	var cnt counts
	for i := range specs {
		c, err := countingRun(specs[i])
		if err != nil {
			return nil, outcome{}, fmt.Errorf("counting run, cell %d: %w", i, err)
		}
		cnt.add(c)
	}

	all := append(append(append([]rep(nil), plain...), profiled...), spansRep)
	checkDeterminism(all)
	out := tally(w, all)
	if spanErr != nil {
		out.failures = append(out.failures, "span tree: "+spanErr.Error())
	}

	wallOf := func(reps []rep) float64 { return median(perRep(reps, repWall)) }
	wall := wallOf(plain)
	m := map[string]sample{}
	set := func(name string, v float64) { m[name] = scalar(v) }

	set("sim.events", float64(plain[0].events))
	set("sim.ns_per_event", ratio(wall*1e9, float64(plain[0].events)))
	set("sim.pending_mean", ratio(float64(cnt.pendingSum), float64(cnt.slices)))
	set("sim.pending_max", float64(cnt.pendingMax))
	set("sim.shard_imbalance", imbalance(cnt.shardEvents))
	set("sim.shard_speedup", 0)
	if specs[0].EffectiveShards() > 1 {
		serial := append([]scenario.Spec(nil), specs...)
		for i := range serial {
			serial[i].Shards = 1
		}
		var reps []rep
		for i := 0; i < 2; i++ {
			r, err := runRep(ctx, w, serial, repOpts{tmpRoot: tmpRoot})
			if err != nil {
				return nil, outcome{}, err
			}
			reps = append(reps, r)
		}
		set("sim.shard_speedup", ratio(wallOf(reps), wall))
	}

	shares, cpuSamples := cpuShares(samples)
	for _, l := range layers {
		set(l+".cpu_share", shares[l])
	}
	set("runtime.gc_share", shares["runtime.gc"])
	set("runtime.malloc_share", shares["runtime.malloc"])

	set("netem.pkt_hops", float64(cnt.hops))
	set("netem.drops", float64(cnt.drops))
	set("netem.marks", float64(cnt.marks))
	set("tcp.retransmits", float64(cnt.retransmits))
	set("tcp.rtos", float64(cnt.rtos))
	set("tcp.early_responses", float64(cnt.early))
	set("trafficgen.objects", float64(cnt.objects))
	set("trafficgen.mallocs_per_object", ratio(median(perRep(plain, repMallocs)), float64(cnt.objects)))
	set("fluid.steps", float64(cnt.fluidSteps))
	set("fluid.eq9_relerr", 0)
	if cnt.fluidSteps > 0 {
		var sum float64
		for _, c := range plain[0].cells {
			if c.fail == "" {
				e, _ := hybridRelErr(c.rec.Tables[0]) // checkHybrid already failed the cell on an error
				sum += e
			}
		}
		set("fluid.eq9_relerr", sum/float64(len(specs)))
	}

	for _, name := range []string{"scenario.load", "scenario.compile", "scenario.spawn",
		"cache.key", "cache.claim_commit", "cache.get"} {
		set(name+"_us", tr.meanUs(name))
	}
	recordBytes := 0
	for _, c := range spansRep.cells {
		recordBytes += c.recordJSON
	}
	set("cache.record_bytes", ratio(float64(recordBytes), float64(len(spansRep.cells))))

	passMedian := func(match func(pass) bool, f func(passStat) float64) float64 {
		for pi, p := range w.passes {
			if match(p) {
				return median(perRep(plain, func(r rep) float64 { return f(r.passes[pi]) }))
			}
		}
		return 0
	}
	passWall := func(ps passStat) float64 { return ps.wallS }
	cells := float64(len(specs))
	cold := passMedian(func(p pass) bool { return p.cache == "fresh" && !p.isolate }, passWall)
	warm := passMedian(func(p pass) bool { return p.cache == "reuse" }, passWall)
	isolated := passMedian(func(p pass) bool { return p.isolate }, passWall)
	set("cache.hit_ratio", passMedian(func(p pass) bool { return p.cache == "reuse" },
		func(ps passStat) float64 { return ratio(float64(ps.hits), float64(ps.hits+ps.misses)) }))
	set("harness.replay_us_per_cell", warm/cells*1e6)
	set("harness.isolate_ms_per_cell", 0)
	if isolated > 0 {
		set("harness.isolate_ms_per_cell", (isolated-cold)/cells*1e3)
	}
	var cellMs []float64
	retries := 0
	for _, r := range plain {
		retries += r.retries
		for _, c := range r.cells {
			if !c.rec.Cached {
				cellMs = append(cellMs, c.rec.WallSeconds*1e3)
			}
		}
	}
	sort.Float64s(cellMs)
	set("harness.cell_ms_p50", quantile(cellMs, 0.50))
	set("harness.cell_ms_p95", quantile(cellMs, 0.95))
	set("harness.retries", float64(retries))

	set("obs.metrics_overhead_pct", 0)
	if w.obsRep {
		r, err := runRep(ctx, w, specs, repOpts{tmpRoot: tmpRoot, series: true})
		if err != nil {
			return nil, outcome{}, err
		}
		set("obs.metrics_overhead_pct", 100*(ratio(r.wallS, wall)-1))
	}
	set("trace.overhead_pct", 100*(ratio(wallOf(profiled), wall)-1))
	set("proc.gc_cycles", median(perRep(plain, func(r rep) float64 { return float64(r.gcCycles) })))
	set("proc.gc_pause_ms", median(perRep(plain, func(r rep) float64 { return float64(r.gcPauseNs) / 1e6 })))

	set("proc.peak_rss_mb", peakRSSMB())

	fmt.Printf("ledger: %d untraced + %d profiled reps (%d CPU samples), 1 spans rep (%d spans), harness.cell_ms over n=%d cells\n",
		len(plain), len(profiled), cpuSamples, len(tr.spans), len(cellMs))
	return m, out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is max/mean of the per-shard event counts: 1 is a perfect split
// (and what a serial run reports).
func imbalance(events []uint64) float64 {
	var sum, most uint64
	for _, e := range events {
		sum += e
		most = max(most, e)
	}
	return ratio(float64(most)*float64(len(events)), float64(sum))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
