package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pert/internal/netem"
	"pert/internal/obs"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
)

// DefaultMetricsInterval is the sampling period used when a MetricsSpec does
// not set one: 100 ms of sim time matches the paper's figure resolution and
// costs well under 1% of run time on a saturated quick-scale bottleneck.
const DefaultMetricsInterval = 100 * sim.Millisecond

// metricsFlows caps how many forward flows get per-flow series: the paper's
// per-flow plots show a handful of flows, and instrumenting all 256 flows of
// a fig8 point would multiply series count for no figure.
const metricsFlows = 8

// MetricsSpec enables time-series collection for one dumbbell run. A nil
// *MetricsSpec (the zero Attachments) disables the whole layer: no
// registry is built and every instrument call in the model compiles to a
// nil-check no-op.
type MetricsSpec struct {
	// Sink receives every sampled point, typically an *obs.SeriesWriter
	// streaming JSONL to a file. The caller owns flushing/closing the
	// underlying file; Registry.Close (called at end of run) flushes the
	// writer, whose errors are sticky. A nil Sink still runs the flight
	// recorder.
	Sink obs.Sink
	// Interval between samples (default DefaultMetricsInterval).
	Interval sim.Duration
}

func (m *MetricsSpec) interval() sim.Duration {
	if m.Interval > 0 {
		return m.Interval
	}
	return DefaultMetricsInterval
}

// newRegistry builds the run's registry and flight recorder before traffic
// (and the auditor) exist, so the auditor can reference the flight in its
// repro bundle. Returns nil when metrics are disabled.
func (m *MetricsSpec) newRegistry(eng *sim.Engine, scenario string) *obs.Registry {
	if m == nil {
		return nil
	}
	reg := obs.NewRegistry(eng)
	if m.Sink != nil {
		reg.AddSink(m.Sink)
	}
	reg.EnableFlight(scenario, obs.DefaultFlightDepth)
	return reg
}

// instrumentDumbbell wires the standard dumbbell series: the bottleneck
// link/queue under "queue.*", per-flow sender series under "tcp/<i>.*" for
// the first metricsFlows forward flows, and starts the sampler from t=0.
func (m *MetricsSpec) instrumentDumbbell(reg *obs.Registry, d *topo.Dumbbell, fwd []*tcp.Flow) {
	if reg == nil {
		return
	}
	d.Forward.Instrument(reg, "queue")
	for i := 0; i < min(metricsFlows, len(fwd)); i++ {
		tcp.InstrumentConn(reg, fwd[i].Conn, fmt.Sprintf("tcp/%d", i))
	}
	reg.Start(0, m.interval())
}

// observeRTT chains an RTT histogram onto the shared sender Config: every
// valid per-ACK RTT sample across the run's long-term flows feeds
// "tcp.rtt", summarized (count/p50/p95/p99) at registry close.
func observeRTT(reg *obs.Registry, conn *tcp.Config) {
	if reg == nil {
		return
	}
	hist := reg.NewHistogram("tcp.rtt")
	prev := conn.OnRTTSample
	conn.OnRTTSample = func(now sim.Time, rtt sim.Duration, ack *netem.Packet) {
		hist.Observe(rtt.Seconds())
		if prev != nil {
			prev(now, rtt, ack)
		}
	}
}

// MetricsConfig is the sweep-level metrics switch carried by a context (see
// WithMetrics): when present, every dumbbell cell (runCells) streams its
// series to Dir/<experiment>/<cell>.jsonl.
type MetricsConfig struct {
	Dir      string       // root output directory (required)
	Interval sim.Duration // per-run sampling period (0 = default)
}

type metricsKey struct{}

// WithMetrics returns a context that enables per-cell series collection for
// experiments run under it. An empty Dir leaves ctx unchanged.
func WithMetrics(ctx context.Context, cfg MetricsConfig) context.Context {
	if cfg.Dir == "" {
		return ctx
	}
	return context.WithValue(ctx, metricsKey{}, cfg)
}

// MetricsFrom reports the metrics configuration carried by ctx, if any.
func MetricsFrom(ctx context.Context) (MetricsConfig, bool) {
	cfg, ok := ctx.Value(metricsKey{}).(MetricsConfig)
	return cfg, ok
}

// cellFileName sanitizes a cell label into a filename component: characters
// outside [a-zA-Z0-9._-] become '-'.
func cellFileName(label string) string {
	var b strings.Builder
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// open creates Dir/<expID>/<cell>.jsonl and returns a MetricsSpec streaming
// to it plus a closer that flushes and reports any sticky write error. Files
// are created before scenarios run (forEach workers cannot return errors)
// and closed after the sweep completes.
func (cfg MetricsConfig) open(expID, cell string) (*MetricsSpec, func() error, error) {
	dir := filepath.Join(cfg.Dir, expID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	path := filepath.Join(dir, cellFileName(cell)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	sw := obs.NewJSONLWriter(f)
	closer := func() error {
		ferr := sw.Flush()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return fmt.Errorf("metrics: %s: %w", path, ferr)
		}
		return nil
	}
	return &MetricsSpec{Sink: sw, Interval: cfg.Interval}, closer, nil
}

// SeriesPaths lists the series files an experiment wrote under the metrics
// root, name-sorted, or nil when the experiment produced none. A missing or
// unreadable directory is "no series", never an error: metrics may be
// disabled, the experiment may not support them, or (for cached cells) the
// series may have been pruned since the record was committed. The harness
// records these in each RunRecord.
func SeriesPaths(dir, expID string) []string {
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(filepath.Join(dir, expID))
	if err != nil {
		return nil
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		paths = append(paths, filepath.Join(dir, expID, e.Name()))
	}
	return paths // ReadDir returns name-sorted entries
}
