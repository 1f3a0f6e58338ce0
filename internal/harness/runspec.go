package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pert/internal/cache"
	"pert/internal/experiments"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// CachePolicy names the content-addressed result store a sweep uses. An
// empty Dir disables caching.
type CachePolicy struct {
	// Dir is the cache root directory, shared freely between concurrent
	// worker processes (cells are claimed via lockfiles).
	Dir string `json:"dir,omitempty"`
}

// RunSpec is the single canonical description of one harness invocation —
// the struct that pertbench flags, pertsim flags, and scenario schema v2
// files all compile into, replacing the old Options struct and per-binary
// flag plumbing. Its serialized form (plain encoding/json) is also the
// object the result cache hashes: the "cell identity" fields below are
// folded into every cell's cache key, while the "mechanics" fields only
// shape how cells execute (results are bit-identical across them, a
// determinism contract the engine tests pin) and the "runtime wiring"
// fields never serialize at all.
type RunSpec struct {
	// Cell identity — hashed into cache keys.

	// Experiments lists registry experiment IDs to run, in order. Empty
	// means the whole registry when Scenario is nil, and no registry cells
	// otherwise.
	Experiments []string `json:"experiments,omitempty"`
	// Scenario is an optional inline declarative cell (schema v2): the
	// validated spec runs through experiments.RunScenario as the sweep's
	// final cell. Its cache key hashes the whole canonicalized spec.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Scale selects experiment sizing; "" means quick.
	Scale string `json:"scale,omitempty"`
	// Seed is the sweep's base RNG seed. Registry experiments use fixed
	// internal seeds today, so for them it only distinguishes cache cells;
	// inline scenarios carry their own seed inside the spec.
	Seed int64 `json:"seed,omitempty"`
	// MetricsInterval overrides the time-series sampling period (0 = the
	// experiments package default, 100 ms of sim time). Part of the cell
	// identity because it changes the series files a cell produces.
	MetricsInterval time.Duration `json:"metrics_interval,omitempty"`
	// Shards requests the sharded parallel engine for cells that support
	// it (experiments that consult experiments.ShardsFrom, and inline
	// scenarios — pertsim folds the flag into the scenario spec instead).
	// Unlike Workers, sharding is a *different execution* — each shard has
	// its own RNG stream — so values above 1 join the cell identity; 0 and
	// 1 are both the serial engine and hash identically.
	Shards int `json:"shards,omitempty"`

	// Mechanics — how cells execute; never hashed.

	// Workers bounds in-experiment scenario parallelism; <1 means the
	// context's worker count (GOMAXPROCS unless overridden).
	Workers int `json:"workers,omitempty"`
	// Timeout bounds each individual run; 0 means none. A timed-out run
	// records an error and the sweep continues.
	Timeout time.Duration `json:"timeout,omitempty"`
	// StallWindow arms the no-progress watchdog: if the process-wide sim
	// event counters do not advance for this much wallclock time, the run
	// is marked StatusStalled and abandoned, and the sweep continues. 0
	// disables. See the watchdog notes on watchRun.
	StallWindow time.Duration `json:"stall_window,omitempty"`
	// MetricsDir, when non-empty, enables time-series collection for every
	// cell. Without a cache the files land under
	// MetricsDir/<experiment>/<cell>.jsonl as before; with a cache enabled
	// the directory's *location* is superseded — series stream into each
	// cell's cache-addressable series/ subtree (so hits replay them) and
	// the report's series_paths point there. Only the on/off switch (and
	// MetricsInterval) joins the cell identity.
	MetricsDir string `json:"metrics_dir,omitempty"`
	// Cache selects the content-addressed result store, if any.
	Cache CachePolicy `json:"cache,omitempty"`
	// Isolate runs each cell in a re-exec'd worker process, so an OOM kill
	// or fatal runtime error loses one cell instead of the sweep. Needs a
	// binary that calls MaybeWorker early in main. With a Cache the worker
	// claims and commits the cell there; without one it runs the cell and
	// reports the record back.
	Isolate bool `json:"isolate,omitempty"`
	// Retries is how many extra times a cell that ends error, timeout,
	// stalled or crashed is re-run, with jittered exponential backoff from
	// 500 ms (see backoff). 0 disables retries.
	Retries int `json:"retries,omitempty"`

	// Runtime wiring — excluded from the serialized form.

	// Sink observes run lifecycle events, and a Progress tick every
	// second while a cell runs; nil disables.
	Sink Sink `json:"-"`
}

// scale returns the effective scale with the quick default applied.
func (s RunSpec) scale() experiments.Scale {
	if s.Scale == "" {
		return experiments.Quick
	}
	return experiments.Scale(s.Scale)
}

// metricsOn reports whether time-series collection is enabled.
func (s RunSpec) metricsOn() bool { return s.MetricsDir != "" }

// Validate checks the spec's enumerated fields. Unknown experiment IDs are
// deliberately not validated here — they become per-run error records so a
// sweep survives a typo (see Run).
func (s RunSpec) Validate() error {
	if !s.scale().Valid() {
		return fmt.Errorf("harness: unknown scale %q (want %q or %q)",
			s.Scale, experiments.Quick, experiments.Paper)
	}
	if s.Shards < 0 || s.Shards > sim.MaxShards {
		return fmt.Errorf("harness: shards %d outside [0, %d]", s.Shards, sim.MaxShards)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"timeout", s.Timeout}, {"stall window", s.StallWindow}, {"metrics interval", s.MetricsInterval},
	} {
		if d.v < 0 {
			return fmt.Errorf("harness: negative %s %v", d.name, d.v)
		}
	}
	if s.Retries < 0 {
		return fmt.Errorf("harness: negative retries %d", s.Retries)
	}
	if s.Scenario != nil {
		if err := s.Scenario.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// cacheKeySchema versions the cell-identity layout below. Bump it whenever
// the identity object or the meaning of any hashed field changes, so stale
// caches miss instead of replaying wrong results.
const cacheKeySchema = 1

// cellIdentity is the canonical object a cell's cache key hashes: the
// semantic subset of the RunSpec plus the cell's own spec and the code
// version. Mechanics (workers, timeouts, sinks) are absent by construction.
type cellIdentity struct {
	KeySchema       int            `json:"key_schema"`
	CodeVersion     string         `json:"code_version"`
	Scale           string         `json:"scale"`
	Seed            int64          `json:"seed,omitempty"`
	Metrics         bool           `json:"metrics,omitempty"`
	MetricsInterval int64          `json:"metrics_interval,omitempty"` // nanoseconds
	Shards          int            `json:"shards,omitempty"`           // only when > 1
	Experiment      string         `json:"experiment,omitempty"`
	Scenario        *scenario.Spec `json:"scenario,omitempty"`
}

// identity builds the shared (cell-independent) part of the key.
// MetricsInterval joins only when metrics are on — with them off it cannot
// affect results, so two such specs must share cells.
func (s RunSpec) identity(codeVersion string) cellIdentity {
	id := cellIdentity{
		KeySchema:   cacheKeySchema,
		CodeVersion: codeVersion,
		Scale:       string(s.scale()),
		Seed:        s.Seed,
	}
	if s.metricsOn() {
		id.Metrics = true
		id.MetricsInterval = int64(s.MetricsInterval)
	}
	// Shards ≤ 1 is the serial engine and must share cells with pre-shards
	// specs (and with each other); only a real parallel request forks the
	// key space.
	if s.Shards > 1 {
		id.Shards = s.Shards
	}
	return id
}

// CellKey returns the cache key of the registry-experiment cell expID under
// this spec, hashed with the given code version. Pass Version() for live
// keys; tests pin a fixed version so golden digests survive commits.
func (s RunSpec) CellKey(expID, codeVersion string) (string, error) {
	if expID == "" {
		return "", errors.New("harness: empty experiment ID")
	}
	id := s.identity(codeVersion)
	id.Experiment = expID
	return cache.Key(id)
}

// ScenarioKey returns the cache key of the spec's inline scenario cell.
func (s RunSpec) ScenarioKey(codeVersion string) (string, error) {
	if s.Scenario == nil {
		return "", errors.New("harness: no inline scenario")
	}
	id := s.identity(codeVersion)
	id.Experiment = ScenarioCellID(s.Scenario)
	canon := s.Scenario.Canonical()
	id.Scenario = &canon
	return cache.Key(id)
}

// ScenarioCellID names the inline scenario cell in reports and sink events.
func ScenarioCellID(sp *scenario.Spec) string {
	if sp == nil || sp.Name == "" {
		return "scenario"
	}
	return "scenario:" + sp.Name
}

// cells expands the spec into the ordered experiment list Run executes:
// registry cells (unknown IDs become always-failing placeholders so report
// mode records them without stopping the sweep) followed by the inline
// scenario cell, if any.
func (s RunSpec) cells() []experiments.Experiment {
	ids := s.Experiments
	if len(ids) == 0 && s.Scenario == nil {
		ids = experiments.IDs()
	}
	out := make([]experiments.Experiment, 0, len(ids)+1)
	for _, id := range ids {
		exp, ok := experiments.ByID(id)
		if !ok {
			exp = failingExperiment(id)
		}
		out = append(out, exp)
	}
	if s.Scenario != nil {
		out = append(out, scenarioExperiment(s.Scenario))
	}
	return out
}

// scenarioExperiment adapts an inline declarative scenario to the
// experiment interface; scale does not apply (the spec is already sized).
func scenarioExperiment(sp *scenario.Spec) experiments.Experiment {
	return experiments.Experiment{
		ID:    ScenarioCellID(sp),
		Title: "declarative scenario (schema v2)",
		Run: func(ctx context.Context, _ experiments.Scale) ([]*experiments.Table, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t, err := experiments.RunScenario(*sp)
			if err != nil {
				return nil, err
			}
			return []*experiments.Table{t}, nil
		},
	}
}

// failingExperiment is a placeholder whose run always errors — how unknown
// experiment IDs are recorded without aborting the rest of the sweep.
func failingExperiment(id string) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "unknown experiment",
		Run: func(context.Context, experiments.Scale) ([]*experiments.Table, error) {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		},
	}
}
