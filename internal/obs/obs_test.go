package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pert/internal/sim"
)

// memSink collects points in order.
type memSink struct {
	pts []Point
}

func (m *memSink) Record(p Point) { m.pts = append(m.pts, p) }

func TestRegistrySampling(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry(eng)
	sink := &memSink{}
	reg.AddSink(sink)

	c := reg.NewCounter("events")
	g := reg.NewGauge("level")
	var pull float64
	reg.GaugeFunc("pull", func() float64 { return pull })

	reg.Start(0, 100*sim.Millisecond)
	eng.Do(50*sim.Millisecond, func() { c.Add(3); g.Set(7.5); pull = 2 })
	eng.Run(250 * sim.Millisecond)

	// Ticks at 0, 100ms, 200ms → 9 points.
	if len(sink.pts) != 9 {
		t.Fatalf("got %d points, want 9: %+v", len(sink.pts), sink.pts)
	}
	// First tick: everything zero.
	for _, p := range sink.pts[:3] {
		if p.T != 0 || p.Value != 0 {
			t.Fatalf("first tick point not zero: %+v", p)
		}
	}
	// Second tick reflects the event at 50ms.
	want := map[string]float64{"events": 3, "level": 7.5, "pull": 2}
	for _, p := range sink.pts[3:6] {
		if p.T != 0.1 {
			t.Fatalf("second tick at %v, want 0.1", p.T)
		}
		if p.Value != want[p.Series] {
			t.Fatalf("%s = %v, want %v", p.Series, p.Value, want[p.Series])
		}
	}
}

func TestGaugeFuncNaNSuppressed(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry(eng)
	sink := &memSink{}
	reg.AddSink(sink)
	ready := false
	reg.GaugeFunc("maybe", func() float64 {
		if !ready {
			return math.NaN()
		}
		return 1
	})
	reg.Sample(0)
	ready = true
	reg.Sample(sim.Seconds(1))
	if len(sink.pts) != 1 || sink.pts[0].T != 1 || sink.pts[0].Value != 1 {
		t.Fatalf("NaN sample not suppressed: %+v", sink.pts)
	}
}

func TestRegistryCloseEmitsHistogramSummaries(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry(eng)
	sink := &memSink{}
	reg.AddSink(sink)
	h := reg.NewHistogram("rtt")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	eng.Do(sim.Seconds(2), func() {})
	eng.Run(sim.Seconds(2))
	if err := reg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := map[string]float64{}
	for _, p := range sink.pts {
		if p.T != 2 {
			t.Fatalf("summary at t=%v, want 2", p.T)
		}
		got[p.Series] = p.Value
	}
	if got["rtt.count"] != 100 {
		t.Fatalf("rtt.count = %v", got["rtt.count"])
	}
	for q, want := range map[string]float64{"rtt.p50": 50, "rtt.p95": 95, "rtt.p99": 99} {
		if v := got[q]; math.Abs(v-want)/want > 0.10 {
			t.Fatalf("%s = %v, want within 10%% of %v", q, v, want)
		}
	}
	// Closing twice is a no-op.
	n := len(sink.pts)
	if err := reg.Close(); err != nil || len(sink.pts) != n {
		t.Fatalf("second Close not a no-op")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var reg *Registry
	c := reg.NewCounter("x")
	g := reg.NewGauge("y")
	h := reg.NewHistogram("z")
	reg.GaugeFunc("f", func() float64 { return 1 })
	reg.AddSink(&memSink{})
	reg.Start(0, sim.Second)
	reg.Sample(0)
	if fl := reg.EnableFlight("s", 8); fl != nil {
		t.Fatalf("nil registry returned a flight")
	}
	if reg.Flight() != nil {
		t.Fatalf("nil registry has a flight")
	}
	if err := reg.Close(); err != nil {
		t.Fatalf("Close on nil: %v", err)
	}
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil instruments")
	}
	// The disabled instruments absorb use without crashing.
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil instruments leaked state")
	}
}

// TestDisabledInstrumentAllocBudget pins the zero-overhead-when-disabled
// contract: bumping nil instruments — the exact code path model code takes
// when no registry is attached — must not allocate.
func TestDisabledInstrumentAllocBudget(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 100; i++ {
			c.Inc()
			c.Add(2)
			g.Set(float64(i))
			h.Observe(float64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f objects/run, want 0", allocs)
	}
}

// TestEnabledCounterAllocBudget: enabled counters and gauges are plain field
// writes — still no allocation per operation (histograms may allocate lazily
// for new buckets, which is fine off the hot path).
func TestEnabledCounterAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry(eng)
	c := reg.NewCounter("c")
	g := reg.NewGauge("g")
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 100; i++ {
			c.Inc()
			g.Set(float64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("enabled counter/gauge allocated %.1f objects/run, want 0", allocs)
	}
}

func TestRegistryNamePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, tc := range []struct {
		name string
		fn   func(r *Registry)
	}{
		{"duplicate", func(r *Registry) { r.NewCounter("a"); r.NewCounter("a") }},
		{"empty", func(r *Registry) { r.NewGauge("") }},
		{"space", func(r *Registry) { r.NewGauge("a b") }},
		{"comma", func(r *Registry) { r.NewGauge("a,b") }},
		{"quote", func(r *Registry) { r.NewGauge(`a"b`) }},
		{"histogram summary collision", func(r *Registry) { r.NewHistogram("h"); r.NewGauge("h.p50") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic")
				}
			}()
			tc.fn(NewRegistry(eng))
		})
	}
}

func TestCheckName(t *testing.T) {
	for _, ok := range []string{"queue.len", "tcp/0.cwnd", "a-b_c.D9"} {
		if err := CheckName(ok); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "a b", "a,b", `a"b`, "a\nb", "é"} {
		if err := CheckName(bad); err == nil {
			t.Errorf("CheckName(%q) accepted", bad)
		}
	}
}

func TestSamplerDeterminism(t *testing.T) {
	// Two engines, same seed, one with a registry sampling on the ticker:
	// the model event sequence (and the engine RNG stream) must be
	// identical. The model schedules events from the RNG; we record its
	// draws.
	run := func(withMetrics bool) []int64 {
		eng := sim.NewEngine(42)
		var draws []int64
		if withMetrics {
			reg := NewRegistry(eng)
			reg.AddSink(&memSink{})
			reg.GaugeFunc("g", func() float64 { return float64(len(draws)) })
			reg.Start(0, 10*sim.Millisecond)
			defer reg.Close()
		}
		var step func()
		step = func() {
			draws = append(draws, eng.Rand().Int63())
			if len(draws) < 50 {
				eng.DoAfter(sim.Duration(3*sim.Millisecond), step)
			}
		}
		eng.Do(0, step)
		eng.Run(sim.Second)
		return draws
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("draw counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RNG stream diverged at draw %d", i)
		}
	}
}

func TestSeriesWriterStickyError(t *testing.T) {
	sw := NewJSONLWriter(failWriter{})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		sw.Record(Point{T: float64(i), Series: "s", Value: 1})
	}
	if sw.Err() == nil {
		t.Fatalf("write error not sticky")
	}
	if err := sw.Flush(); err == nil {
		t.Fatalf("Flush lost the sticky error")
	}
	// Invalid series names are refused into the sticky error too.
	sw2 := NewJSONLWriter(&strings.Builder{})
	sw2.Record(Point{T: 0, Series: "bad name", Value: 1})
	if sw2.Err() == nil {
		t.Fatalf("invalid name not refused")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "synthetic write failure" }

// frexpKey is the bucket rule stated in terms of math.Frexp, the definition
// bucketKey's bit arithmetic must agree with.
func frexpKey(v float64) int32 {
	frac, exp := math.Frexp(v)
	return int32(exp)*histSub + int32((frac-0.5)*(2*histSub))
}

func TestBucketKeyMatchesFrexp(t *testing.T) {
	vals := []float64{math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 0.5, math.Nextafter(1, 0), 1,
		math.Nextafter(1, 2), 0.06, 1e9, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		vals = append(vals, math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2040)-1060))
	}
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		k := bucketKey(v)
		if want := frexpKey(v); k != want {
			t.Fatalf("bucketKey(%g) = %d, Frexp rule gives %d", v, k, want)
		}
		// Bucket edges are not representable among the subnormals.
		if lo, hi := bucketBounds(k); v >= 0x1p-1022 && (v < lo || v >= hi) {
			t.Fatalf("%g not inside its bucket [%g, %g)", v, lo, hi)
		}
	}
}

// TestHistogramWindowGrowsBothWays: the dense count window must keep every
// observation however the keys arrive — above, below and far from the
// window — and quantiles must land in the bucket of the exact order
// statistic.
func TestHistogramWindowGrowsBothWays(t *testing.T) {
	h := &Histogram{}
	vals := []float64{0.06, 0.061, 300, 1e-6, 0.2, 1e-300, 0.06, 5e-324, 1e300, 0.05}
	for _, v := range vals {
		h.Observe(v)
	}
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	if n != uint64(len(vals)) || h.Count() != n {
		t.Fatalf("window holds %d observations, Count %d, want %d", n, h.Count(), len(vals))
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for rank := 1; rank <= len(sorted); rank++ {
		got := h.Quantile(float64(rank) / float64(len(sorted)))
		if bucketKey(got) != bucketKey(sorted[rank-1]) {
			t.Fatalf("quantile at rank %d = %g, exact value %g is in another bucket", rank, got, sorted[rank-1])
		}
	}
}
