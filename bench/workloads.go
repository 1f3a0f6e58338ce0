package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pert/internal/experiments"
	"pert/internal/fluid"
	"pert/internal/scenario"
)

// pass is one sweep over a workload's cells under one cache/isolation
// policy. The packet workloads have a single uncached pass; sweep_cells runs
// three against temp cache directories.
type pass struct {
	name    string
	cache   string // "": cache off; "fresh": new temp dir; "reuse": the previous pass's dir
	isolate bool   // run every cell in a re-exec'd worker process
}

var uncached = []pass{{name: "run"}}

// workload is one named set of benchmark inputs. Cells are schema-v2
// scenario documents (the JSON `pertsim -config` reads), generated from the
// seed; the runner loads them through scenario.Load like any user file.
type workload struct {
	name string
	// simSeconds is the full-size simulated duration of each cell. The
	// warm-up rep and the tier-1 test run the same cells cut shorter.
	simSeconds float64
	cells      func(seed int64, simSeconds float64) []scenario.Config
	passes     []pass
	// check is the workload's sanity check on one full-size cell's table.
	check func(t *experiments.Table) error
	// obsRep adds one rep with time-series collection on to the traced run
	// (obs.metrics_overhead_pct); only meaningful for serial, uncached cells.
	obsRep bool
}

// workloads lists the benchmark's workloads in report order. BENCHMARK.json
// carries the same names with the reason each was chosen (bench_test.go
// compares the two lists); README.md says which layers each one bypasses.
var workloads = []workload{
	{
		name:       "bulk_dumbbell",
		simSeconds: 20,
		cells:      bulkDumbbellCells,
		passes:     uncached,
		check:      checkLinks(0.85, 1),
		obsRep:     true,
	},
	{
		name:       "web_churn",
		simSeconds: 32,
		cells:      webChurnCells,
		passes:     uncached,
		check:      checkWebChurn,
	},
	{
		name:       "hybrid_isp",
		simSeconds: 8,
		cells:      hybridISPCells,
		passes:     uncached,
		check:      checkHybrid,
	},
	{
		name:       "parkinglot_shards",
		simSeconds: 10,
		cells:      parkingLotCells,
		passes:     uncached,
		check:      checkLinks(0.85, 0),
	},
	{
		name:       "sweep_cells",
		simSeconds: 2,
		cells:      sweepCells,
		passes: []pass{
			{name: "cold", cache: "fresh"},
			{name: "warm", cache: "reuse"},
			{name: "isolated", cache: "fresh", isolate: true},
		},
		check: func(*experiments.Table) error { return nil },
	},
}

// cores is how many CPUs the workload can keep busy: the largest shard count
// among its cells (the same for every seed).
func (w workload) cores() int {
	n := 1
	for _, c := range w.cells(1, w.simSeconds) {
		n = max(n, c.Shards)
	}
	return n
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dur renders simulated seconds as a schema-v2 duration string.
func dur(seconds float64) string {
	return strconv.FormatInt(int64(math.Round(seconds*1000)), 10) + "ms"
}

// window fills the timing fields every workload shares: measure over the
// last 60% of the run, start flows inside the first 15%.
func window(c *scenario.Config, simSeconds float64) {
	c.Duration = dur(simSeconds)
	c.MeasureFrom = dur(0.4 * simSeconds)
	for i := range c.Groups {
		if c.Groups[i].Model == "" {
			c.Groups[i].StartWindow = dur(0.15 * simSeconds)
		}
	}
}

// The steady-state workloads run proactive schemes only. A loss-based
// scheme's allocation count follows its loss episodes (tcp.Scoreboard.Add
// allocates per SACK block), which differ chaotically from seed to seed:
// over ten seeds Sack/RED-ECN on this dumbbell spread mallocs by 12% and
// bytes by 26%, against 2% for PERT or Vegas. A benchmark has to read the
// same on every seed, so loss recovery is measured where it is diluted by
// other work (web_churn, sweep_cells) and by the tcp.ns_per_ack_lossy
// driver.
var proactivePair = []string{"PERT", "Vegas"}

// section4Pair is the paper's headline comparison: PERT over DropTail, then
// Sack over Adaptive RED with ECN.
var section4Pair = []string{"PERT", "Sack/RED-ECN"}

func bulkDumbbellCells(seed int64, simSeconds float64) []scenario.Config {
	var out []scenario.Config
	for i, scheme := range proactivePair {
		c := scenario.Config{
			Name: "bulk_dumbbell:" + scheme,
			Seed: seed + int64(i),
			Topology: scenario.TopologyConfig{
				Template:     "dumbbell",
				BandwidthBps: 150e6,
				RTTs:         []string{"40ms", "60ms", "80ms", "120ms"},
			},
			Groups: []scenario.GroupConfig{
				{Scheme: scheme, Count: 50, From: "left", To: "right"},
				{Scheme: scheme, Count: 10, From: "right", To: "left"},
			},
		}
		window(&c, simSeconds)
		out = append(out, c)
	}
	return out
}

func webChurnCells(seed int64, simSeconds float64) []scenario.Config {
	var out []scenario.Config
	for i, scheme := range section4Pair {
		c := scenario.Config{
			Name: "web_churn:" + scheme,
			Seed: seed + int64(i),
			Topology: scenario.TopologyConfig{
				Template:     "dumbbell",
				BandwidthBps: 100e6,
				RTTs:         []string{"40ms", "60ms", "80ms", "120ms"},
			},
			Groups: []scenario.GroupConfig{
				{Scheme: scheme, Count: 10, From: "left", To: "right"},
				{Scheme: scheme, Count: 300, From: "left", To: "right", Traffic: "web"},
				{Scheme: scheme, Count: 100, From: "right", To: "left", Traffic: "web"},
			},
		}
		window(&c, simSeconds)
		out = append(out, c)
	}
	return out
}

// Hybrid operating point: the ext-hybrid quick-scale cell (DESIGN.md §10).
const (
	hybridPPS   = 1e7
	hybridFlows = 100_000
	hybridRTT   = 0.06
	// hybridForeground packet flows put the peak pending-event set mid-way
	// between two growth steps of the engine's heap slice. At 1000 the peak
	// straddled a step, and alloc_mb read 20.6 or 22.5 MB depending on the
	// seed; at 850 (and at 1150) twelve seeds agree within 1%.
	hybridForeground = 850
)

// hybridParams is hybrid_isp's modelled aggregate as netem.AttachFluid
// resolves it (its documented defaults); Equilibrium() is eq. (9).
var hybridParams = fluid.PERTParams{
	C: hybridPPS, N: hybridFlows, R: hybridRTT,
	Tmin: 0.005, Tmax: 0.105, Pmax: 0.1,
	Alpha: 0.99, Delta: (1 - 0.99) * hybridRTT / 6,
}

func hybridISPCells(seed int64, simSeconds float64) []scenario.Config {
	var out []scenario.Config
	for i, scheme := range proactivePair {
		c := scenario.Config{
			Name: "hybrid_isp:" + scheme,
			Seed: seed + int64(i),
			Topology: scenario.TopologyConfig{
				Template:     "dumbbell",
				BandwidthBps: hybridPPS * 8 * 1040,
				// One host pair: every foreground flow shares one access link,
				// which caps the foreground packet rate (and so the event count)
				// at the same value on every seed.
				Hosts:      1,
				RTTs:       []string{"60ms"},
				BufferPkts: int(0.2 * hybridPPS),
			},
			Groups: []scenario.GroupConfig{
				{Label: "fg", Scheme: scheme, Count: hybridForeground, From: "left", To: "right"},
				{Label: "bg-fluid", Scheme: "PERT", Count: hybridFlows, From: "left", To: "right",
					Model: "fluid", RTT: "60ms"},
			},
		}
		window(&c, simSeconds)
		out = append(out, c)
	}
	return out
}

func parkingLotCells(seed int64, simSeconds float64) []scenario.Config {
	const routers = 9
	c := scenario.Config{
		Name: "parkinglot_shards",
		Seed: seed,
		Topology: scenario.TopologyConfig{
			Template:   "parkinglot",
			Routers:    routers,
			CloudSize:  10,
			CoreBwBps:  100e6,
			EdgeDelays: []string{"1ms", "3ms", "6ms", "10ms"},
			AQM:        "PERT",
		},
		Shards: 2,
	}
	for hop := 1; hop < routers; hop++ {
		c.Groups = append(c.Groups, scenario.GroupConfig{
			Label: fmt.Sprintf("R%d-R%d", hop, hop+1), Scheme: "PERT", Count: 10,
			From: fmt.Sprintf("cloud%d", hop), To: fmt.Sprintf("cloud%d", hop+1),
		})
	}
	c.Groups = append(c.Groups, scenario.GroupConfig{
		Label: "through", Scheme: "Vegas", Count: 10,
		From: "cloud1", To: fmt.Sprintf("cloud%d", routers),
	})
	window(&c, simSeconds)
	return []scenario.Config{c}
}

// sweepSeedsPerScheme sizes sweep_cells: every registered scheme times this
// many seeds.
const sweepSeedsPerScheme = 12

func sweepCells(seed int64, simSeconds float64) []scenario.Config {
	var out []scenario.Config
	for _, scheme := range scenario.SortedNames() {
		for k := 0; k < sweepSeedsPerScheme; k++ {
			c := scenario.Config{
				Name: fmt.Sprintf("sweep_cells:%s:%d", scheme, k),
				Seed: seed + int64(len(out)),
				Topology: scenario.TopologyConfig{
					Template:     "dumbbell",
					BandwidthBps: 10e6,
					RTTs:         []string{"60ms"},
				},
				Groups: []scenario.GroupConfig{
					{Scheme: scheme, Count: 4, From: "left", To: "right"},
				},
			}
			window(&c, simSeconds)
			out = append(out, c)
		}
	}
	return out
}

// loadCells turns generated documents into validated specs through the same
// JSON loader a user's file goes through, returning the documents' bytes
// alongside (the traced run times scenario.Load on them).
func loadCells(cfgs []scenario.Config) ([]scenario.Spec, [][]byte, error) {
	specs := make([]scenario.Spec, len(cfgs))
	docs := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		doc, err := json.Marshal(c)
		if err != nil {
			return nil, nil, fmt.Errorf("cell %d: %w", i, err)
		}
		spec, err := scenario.Load(bytes.NewReader(doc))
		if err != nil {
			return nil, nil, fmt.Errorf("cell %d (%s): %w", i, c.Name, err)
		}
		specs[i], docs[i] = spec, doc
	}
	return specs, docs, nil
}

// Table readers for the sanity checks. RunScenario renders one "link <name>"
// row per measured core link and one "group <label>" row per flow group.

func column(t *experiments.Table, name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

func cellFloat(t *experiments.Table, row []string, col string) (float64, error) {
	i := column(t, col)
	if i < 0 || i >= len(row) {
		return 0, fmt.Errorf("table %s has no column %q", t.ID, col)
	}
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		return 0, fmt.Errorf("table %s row %q column %s: %w", t.ID, row[0], col, err)
	}
	return v, nil
}

// checkLinks requires utilization >= floor on measured links. only > 0
// restricts the check to the first `only` link rows (the forward bottleneck
// of a dumbbell, whose reverse direction is lightly loaded by design).
func checkLinks(floor float64, only int) func(*experiments.Table) error {
	return func(t *experiments.Table) error {
		seen := 0
		for _, row := range t.Rows {
			if !strings.HasPrefix(row[0], "link ") || (only > 0 && seen >= only) {
				continue
			}
			seen++
			u, err := cellFloat(t, row, "utilization")
			if err != nil {
				return err
			}
			if u < floor {
				return fmt.Errorf("%s: %s utilization %.3f < %.2f", t.ID, row[0], u, floor)
			}
		}
		if seen == 0 {
			return fmt.Errorf("%s: no link rows", t.ID)
		}
		return nil
	}
}

// checkWebChurn requires a lightly dropping forward link and a web
// population that actually churned.
func checkWebChurn(t *experiments.Table) error {
	var objects int
	for _, row := range t.Rows {
		switch {
		case row[0] == "link forward":
			d, err := cellFloat(t, row, "drop_rate")
			if err != nil {
				return err
			}
			if d >= 0.02 {
				return fmt.Errorf("%s: forward drop rate %.4f >= 2%%", t.ID, d)
			}
		case strings.HasPrefix(row[0], "group ") && strings.HasSuffix(row[len(row)-1], " objects"):
			n, err := strconv.Atoi(strings.TrimSuffix(row[len(row)-1], " objects"))
			if err != nil {
				return fmt.Errorf("%s: %w", t.ID, err)
			}
			objects += n
		}
	}
	if objects < webChurnMinObjects {
		return fmt.Errorf("%s: %d web objects < %d", t.ID, objects, webChurnMinObjects)
	}
	return nil
}

const webChurnMinObjects = 10_000

// hybridRelErr is the shared queue's relative distance from the eq. (9)
// closed form Tq*·C for the modelled aggregate.
func hybridRelErr(t *experiments.Table) (float64, error) {
	_, _, tq := hybridParams.Equilibrium()
	want := tq * hybridPPS
	for _, row := range t.Rows {
		if row[0] == "link forward" {
			q, err := cellFloat(t, row, "avg_queue_pkts")
			if err != nil {
				return 0, err
			}
			return math.Abs(q-want) / want, nil
		}
	}
	return 0, fmt.Errorf("%s: no forward link row", t.ID)
}

// checkHybrid is the repo's hybrid-smoke accuracy band.
func checkHybrid(t *experiments.Table) error {
	e, err := hybridRelErr(t)
	if err != nil {
		return err
	}
	if e > 0.10 {
		return fmt.Errorf("%s: shared queue %.1f%% off the eq. (9) closed form (band 10%%)", t.ID, 100*e)
	}
	return nil
}

// since is time.Since in float seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
