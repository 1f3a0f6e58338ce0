package harness

import (
	"encoding/json"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"pert/internal/experiments"
)

// SchemaVersion identifies the report JSON layout. Bump only on
// incompatible changes; additions are allowed within a version.
const SchemaVersion = 1

// Run-health states recorded in RunRecord.Status. Exactly one applies to
// every finished run; anything other than StatusOK also fills Error.
const (
	StatusOK       = "ok"       // tables produced, invariants held
	StatusError    = "error"    // runner returned an error or panicked (incl. auditor violations)
	StatusTimeout  = "timeout"  // per-run Timeout expired (or the supervisor's deadline budget)
	StatusStalled  = "stalled"  // watchdog saw no sim progress within StallWindow
	StatusCrashed  = "crashed"  // isolated worker process died (OOM kill, fatal runtime error, injected crash)
	StatusCanceled = "canceled" // the sweep's context was canceled mid-run (Ctrl-C); never retried
)

// RunRecord is the outcome of one experiment run. Exactly one of Error and
// a non-trivial Tables slice is meaningful: a failed run keeps its timing
// metadata but carries no tables.
type RunRecord struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Scale string `json:"scale"`
	// Status is the run-health verdict, one of the Status* values. Every
	// record carries one; a cached record without it is rejected on replay
	// and recomputed.
	Status string `json:"status"`
	// WallSeconds is the run's wallclock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// SimEvents counts discrete-event executions attributed to this run.
	SimEvents uint64 `json:"sim_events"`
	// EventsPerSecond is SimEvents / WallSeconds.
	EventsPerSecond float64 `json:"events_per_second"`
	// SimSeconds is simulated time advanced during this run (summed across
	// scenarios, so it can exceed WallSeconds * workers).
	SimSeconds float64 `json:"sim_seconds"`
	// Mallocs counts heap objects allocated in the process during this run
	// (runtime.MemStats delta; additive schema-version-1 field). Runs are
	// sequential, so the delta is attributable to this run, but within-run
	// worker goroutines and background GC are included — compare numbers
	// only across reports produced with the same worker count.
	Mallocs uint64 `json:"mallocs"`
	// AllocsPerEvent is Mallocs / SimEvents, the perf-regression harness's
	// primary allocation metric: the event loop's pooled hot paths keep it
	// well under one allocation per simulated event.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Error is the failure (panic, cancellation, bad spec), empty on success.
	Error string `json:"error,omitempty"`
	// Attempts is how many times the cell executed before this record was
	// produced (1 = first try; >1 means RunSpec.Retries re-ran it). Replayed
	// records keep the count of the run that committed them. Additive
	// schema-version-1 field; absent in old reports means 1.
	Attempts int `json:"attempts,omitempty"`
	// Cached marks a run replayed from the result cache instead of being
	// simulated; its timing fields are the original run's (additive
	// schema-version-1 field).
	Cached bool `json:"cached,omitempty"`
	// CacheKey is the run's content address in the result cache, set whenever
	// caching was enabled and the cell was keyable — on misses too, so
	// reports identify the cells they populated (additive field).
	CacheKey string `json:"cache_key,omitempty"`
	// SeriesPaths lists the time-series files this run wrote under
	// RunSpec.MetricsDir — or, when caching is enabled, under the cell's
	// cache-addressable series/ directory (additive schema-version-1 field;
	// absent when metrics were disabled or the experiment wrote none).
	SeriesPaths []string `json:"series_paths,omitempty"`
	// Tables holds the run's result tables; never null, empty on failure.
	Tables []*experiments.Table `json:"tables"`
}

// Report aggregates a whole sweep. It serializes to the stable JSON schema
// documented in EXPERIMENTS.md ("JSON output"). Its top-level Mallocs counts
// the parent process only: under Isolate the workers' allocations are not
// in it.
type Report struct {
	SchemaVersion int       `json:"schema_version"`
	Version       string    `json:"version"` // build VCS revision, or "unknown"
	Scale         string    `json:"scale"`
	Workers       int       `json:"workers"`
	StartedAt     time.Time `json:"started_at"`
	// WallSeconds, SimEvents, EventsPerSecond, Mallocs and AllocsPerEvent
	// cover the whole sweep (same caveats as the per-run fields). SimEvents
	// counts what this process simulated during the sweep, plus, under
	// Isolate, the workers' runs that were not replayed.
	WallSeconds     float64 `json:"wall_seconds"`
	SimEvents       uint64  `json:"sim_events"`
	EventsPerSecond float64 `json:"events_per_second"`
	Mallocs         uint64  `json:"mallocs"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
	// CacheDir, CacheHits and CacheMisses describe the sweep's use of the
	// content-addressed result cache (additive schema-version-1 fields;
	// absent when caching was disabled).
	CacheDir    string `json:"cache_dir,omitempty"`
	CacheHits   int    `json:"cache_hits,omitempty"`
	CacheMisses int    `json:"cache_misses,omitempty"`
	// Retries counts extra cell executions the retry policy spent across
	// the sweep (sum of attempts-1; additive schema-version-1 field).
	Retries int         `json:"retries,omitempty"`
	Runs    []RunRecord `json:"runs"`
}

// Failed returns the runs that ended in an error, in sweep order.
func (r *Report) Failed() []RunRecord {
	var out []RunRecord
	for _, run := range r.Runs {
		if run.Error != "" {
			out = append(out, run)
		}
	}
	return out
}

// WriteJSON writes the indented report followed by a newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Version reports the build's VCS revision (shortened, "-dirty" suffixed
// when the tree was modified), the module version for released builds, or
// "unknown". It never shells out to git, and reads the build info once per
// process.
var Version = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
})
