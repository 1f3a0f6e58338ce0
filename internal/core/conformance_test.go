package core

import (
	"math"
	"math/rand"
	"testing"

	"pert/internal/sim"
)

// Paper-anchored conformance tests for the PERT response curve (Section 3,
// Figure 5) and the PERT/PI controller (Section 6). These pin the numeric
// breakpoints and slopes of the RED emulation with the publication's
// parameters — Tmin = 5 ms, Tmax = 10 ms, Pmax = 0.05 — so a refactor of the
// curve cannot silently move the probability law the experiments depend on.

const probTol = 1e-12

func paperCurve() ResponseCurve {
	return ResponseCurve{Tmin: 5 * sim.Millisecond, Tmax: 10 * sim.Millisecond, Pmax: 0.05, Gentle: true}
}

func TestResponseCurveBreakpoints(t *testing.T) {
	c := paperCurve()
	for _, tc := range []struct {
		name string
		tq   sim.Duration
		want float64
	}{
		// Below Tmin: no early response.
		{"zero", 0, 0},
		{"below Tmin", 4 * sim.Millisecond, 0},
		{"just under Tmin", 5*sim.Millisecond - 1, 0},
		// At Tmin the linear ramp starts from 0.
		{"at Tmin", 5 * sim.Millisecond, 0},
		// Linear ramp Pmax*(Tq-Tmin)/(Tmax-Tmin): slope Pmax/5ms.
		{"6 ms", 6 * sim.Millisecond, 0.01},
		{"7.5 ms (midpoint)", 7500 * sim.Microsecond, 0.025},
		{"9 ms", 9 * sim.Millisecond, 0.04},
		// Just below Tmax the ramp approaches Pmax.
		{"just under Tmax", 10*sim.Millisecond - 1000, 0.05 * float64(5*sim.Millisecond-1000) / float64(5*sim.Millisecond)},
		// At Tmax the gentle segment takes over at exactly Pmax.
		{"at Tmax", 10 * sim.Millisecond, 0.05},
		// Gentle segment Pmax + (1-Pmax)*(Tq-Tmax)/Tmax: slope (1-Pmax)/10ms.
		{"12.5 ms", 12500 * sim.Microsecond, 0.05 + 0.95*0.25},
		{"15 ms (gentle midpoint)", 15 * sim.Millisecond, 0.525},
		{"17.5 ms", 17500 * sim.Microsecond, 0.05 + 0.95*0.75},
		// At and beyond 2*Tmax the probability saturates at 1.
		{"at 2*Tmax", 20 * sim.Millisecond, 1},
		{"beyond 2*Tmax", 50 * sim.Millisecond, 1},
	} {
		if got := c.Prob(tc.tq); math.Abs(got-tc.want) > probTol {
			t.Errorf("%s: Prob(%v) = %v, want %v", tc.name, tc.tq, got, tc.want)
		}
	}
}

func TestResponseCurveSlopes(t *testing.T) {
	c := paperCurve()
	// Numeric slope over each linear segment must match the analytic value
	// everywhere, not only at the endpoints.
	segSlope := func(a, b sim.Duration) float64 {
		return (c.Prob(b) - c.Prob(a)) / (b - a).Seconds()
	}
	rampSlope := c.Pmax / (c.Tmax - c.Tmin).Seconds() // 0.05 / 5ms = 10 /s
	for _, pair := range [][2]sim.Duration{
		{5 * sim.Millisecond, 6 * sim.Millisecond},
		{6 * sim.Millisecond, 9 * sim.Millisecond},
		{7 * sim.Millisecond, 10 * sim.Millisecond},
	} {
		if got := segSlope(pair[0], pair[1]); math.Abs(got-rampSlope) > 1e-6 {
			t.Errorf("RED ramp slope over [%v,%v] = %v, want %v", pair[0], pair[1], got, rampSlope)
		}
	}
	gentleSlope := (1 - c.Pmax) / c.Tmax.Seconds() // 0.95 / 10ms = 95 /s
	for _, pair := range [][2]sim.Duration{
		{10 * sim.Millisecond, 12 * sim.Millisecond},
		{12 * sim.Millisecond, 20 * sim.Millisecond},
	} {
		if got := segSlope(pair[0], pair[1]); math.Abs(got-gentleSlope) > 1e-6 {
			t.Errorf("gentle slope over [%v,%v] = %v, want %v", pair[0], pair[1], got, gentleSlope)
		}
	}
}

func TestResponseCurveNonGentleClips(t *testing.T) {
	c := paperCurve()
	c.Gentle = false
	for _, tq := range []sim.Duration{10 * sim.Millisecond, 15 * sim.Millisecond,
		20 * sim.Millisecond, sim.Second} {
		if got := c.Prob(tq); got != c.Pmax {
			t.Errorf("non-gentle Prob(%v) = %v, want clip at Pmax=%v", tq, got, c.Pmax)
		}
	}
	// The ramp below Tmax is unchanged by the Gentle flag.
	gentle := paperCurve()
	for _, tq := range []sim.Duration{0, 3 * sim.Millisecond, 7 * sim.Millisecond, 10*sim.Millisecond - 1} {
		if c.Prob(tq) != gentle.Prob(tq) {
			t.Errorf("Gentle flag changed Prob(%v) below Tmax", tq)
		}
	}
}

func TestResponseCurveMonotone(t *testing.T) {
	for _, gentle := range []bool{true, false} {
		c := paperCurve()
		c.Gentle = gentle
		prev := -1.0
		for tq := sim.Duration(0); tq <= 30*sim.Millisecond; tq += 100 * sim.Microsecond {
			p := c.Prob(tq)
			if p < prev {
				t.Fatalf("gentle=%v: Prob decreased at %v: %v -> %v", gentle, tq, prev, p)
			}
			if p < 0 || p > 1 {
				t.Fatalf("gentle=%v: Prob(%v) = %v outside [0,1]", gentle, tq, p)
			}
			prev = p
		}
	}
}

func TestDefaultCurveMatchesPaper(t *testing.T) {
	c := DefaultCurve()
	if c.Tmin != 5*sim.Millisecond || c.Tmax != 10*sim.Millisecond ||
		c.Pmax != 0.05 || !c.Gentle {
		t.Fatalf("DefaultCurve = %+v, want paper parameters (5ms, 10ms, 0.05, gentle)", c)
	}
}

// TestREDResponderProberConsistency: the instrumentation probe P() must agree
// with the probability OnRTT computes for the same signal state, and must not
// advance the signal.
func TestREDResponderProberConsistency(t *testing.T) {
	r := NewREDResponder(rand.New(rand.NewSource(1)))
	var _ Responder = r // compile-time: REDResponder exposes its probability
	now := sim.Time(0)
	// Establish P = 40 ms, then push srtt up with 55 ms samples.
	for i := 0; i < 400; i++ {
		rtt := 55 * sim.Millisecond
		if i == 0 {
			rtt = 40 * sim.Millisecond
		}
		now += 10 * sim.Millisecond
		d := r.OnRTT(now, rtt)
		probe := r.P()
		if math.Abs(probe-d.Prob) > probTol {
			t.Fatalf("sample %d: P() = %v but OnRTT reported %v", i, probe, d.Prob)
		}
	}
	before := r.Signal().QueueingDelay()
	for i := 0; i < 100; i++ {
		r.P()
	}
	if r.Signal().QueueingDelay() != before {
		t.Fatalf("P() advanced the signal")
	}
}

// TestPIResponderMonotoneInDelay: the PI emulation's probability must move
// with the sign of the delay error — rise while the estimated queueing delay
// sits above target, fall (and floor at 0) while below (Section 6,
// equation 18).
func TestPIResponderMonotoneInDelay(t *testing.T) {
	mk := func() *PIResponder {
		params := DesignPERTPI(5000, 10, 200*sim.Millisecond) // 5k pkts/s, 10 flows, 200ms Rmax
		return NewPIResponder(rand.New(rand.NewSource(1)), params, 10*sim.Millisecond, 3*sim.Millisecond)
	}
	r := mk()
	now := sim.Time(0)
	feed := func(rtt sim.Duration, n int) []float64 {
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			now += 10 * sim.Millisecond
			r.OnRTT(now, rtt)
			out = append(out, r.P())
		}
		return out
	}
	// Pin P at 40 ms, then hold RTT at 80 ms: queueing delay climbs well
	// above the 3 ms target, so p must be non-decreasing once the error is
	// positive, and must become strictly positive.
	feed(40*sim.Millisecond, 1)
	ps := feed(80*sim.Millisecond, 600)
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1]-probTol {
			t.Fatalf("p decreased (%v -> %v at step %d) while delay error was positive", ps[i-1], ps[i], i)
		}
	}
	final := ps[len(ps)-1]
	if final <= 0 {
		t.Fatalf("persistent positive error left p = %v, want > 0", final)
	}
	// Now return RTT to the propagation delay: the error turns negative and
	// p must decay monotonically to the 0 floor (the per-step decrement is
	// tiny — (Gamma-Beta)*|err| — so give the integrator plenty of samples).
	ps = feed(40*sim.Millisecond, 50000)
	for i := 1; i < len(ps); i++ {
		if ps[i] > ps[i-1]+probTol {
			t.Fatalf("p increased (%v -> %v at step %d) while delay error was negative", ps[i-1], ps[i], i)
		}
	}
	if got := ps[len(ps)-1]; got != 0 {
		t.Fatalf("persistent negative error left p = %v, want floor at 0", got)
	}

	// Sensitivity: from identical state, a larger next delay sample may not
	// produce a smaller probability.
	a, b := mk(), mk()
	nowA, nowB := sim.Time(0), sim.Time(0)
	for i := 0; i < 50; i++ {
		nowA += 10 * sim.Millisecond
		nowB += 10 * sim.Millisecond
		rtt := 40 * sim.Millisecond
		if i > 0 {
			rtt = 60 * sim.Millisecond
		}
		a.OnRTT(nowA, rtt)
		b.OnRTT(nowB, rtt)
	}
	nowA += 10 * sim.Millisecond
	nowB += 10 * sim.Millisecond
	a.OnRTT(nowA, 60*sim.Millisecond)
	b.OnRTT(nowB, 90*sim.Millisecond) // strictly larger sample
	if b.P() < a.P()-probTol {
		t.Fatalf("larger delay sample lowered p: %v < %v", b.P(), a.P())
	}

	var _ Responder = r // PI responder exposes its probability too
}
