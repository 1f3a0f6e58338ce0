package core

import (
	"math"
	"math/rand"
	"testing"

	"pert/internal/sim"
)

// durationCurveRef is the response curve written directly over sim.Duration,
// the reference Ramp must reproduce bit for bit: it converts integer
// differences to float64 after subtracting, where Ramp subtracts the
// converted values, and the two agree exactly while every duration stays
// below 2^53 ns (about 104 days).
func durationCurveRef(c ResponseCurve, tq sim.Duration) float64 {
	switch {
	case tq < c.Tmin:
		return 0
	case tq < c.Tmax:
		return c.Pmax * float64(tq-c.Tmin) / float64(c.Tmax-c.Tmin)
	case !c.Gentle:
		return c.Pmax
	case tq < 2*c.Tmax:
		return c.Pmax + (1-c.Pmax)*float64(tq-c.Tmax)/float64(c.Tmax)
	default:
		return 1
	}
}

// durationBreakpoints returns every point where the curve changes branch,
// and one nanosecond either side.
func durationBreakpoints(c ResponseCurve) []sim.Duration {
	var out []sim.Duration
	for _, b := range []sim.Duration{0, c.Tmin, c.Tmax, 2 * c.Tmax} {
		out = append(out, b-1, b, b+1)
	}
	return out
}

func checkDurationCurve(t *testing.T, c ResponseCurve, tq sim.Duration) {
	t.Helper()
	if got, want := c.Prob(tq), durationCurveRef(c, tq); got != want {
		t.Fatalf("%+v: Prob(%d) = %v, reference %v", c, tq, got, want)
	}
}

func TestRampMatchesDurationCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	curves := []ResponseCurve{DefaultCurve(), paperCurve(), {Tmin: 5 * sim.Millisecond, Tmax: 105 * sim.Millisecond, Pmax: 0.1}}
	for i := 0; i < 200; i++ {
		lo := sim.Duration(rng.Int63n(int64(sim.Second)))
		hi := lo + 1 + sim.Duration(rng.Int63n(int64(sim.Second)))
		curves = append(curves, ResponseCurve{Tmin: lo, Tmax: hi, Pmax: rng.Float64(), Gentle: rng.Intn(2) == 0})
	}
	for _, c := range curves {
		for _, gentle := range []bool{true, false} {
			c.Gentle = gentle
			for _, tq := range durationBreakpoints(c) {
				checkDurationCurve(t, c, tq)
			}
			for i := 0; i < 200; i++ {
				checkDurationCurve(t, c, sim.Duration(rng.Int63n(int64(3*c.Tmax)+1)))
			}
		}
	}
}

// FuzzRamp holds Ramp to the sim.Duration reference over arbitrary curves and
// delays below 2^52 ns, and to [0,1] whenever the curve is well formed.
func FuzzRamp(f *testing.F) {
	f.Add(int64(7500*sim.Microsecond), int64(5*sim.Millisecond), int64(10*sim.Millisecond), 0.05, true)
	f.Add(int64(10*sim.Millisecond), int64(5*sim.Millisecond), int64(10*sim.Millisecond), 0.05, false)
	f.Add(int64(20*sim.Millisecond-1), int64(5*sim.Millisecond), int64(105*sim.Millisecond), 0.1, true)
	f.Fuzz(func(t *testing.T, tq, lo, hi int64, pmax float64, gentle bool) {
		const bound = 1 << 52
		for _, v := range []int64{tq, lo, hi} {
			if v <= -bound || v >= bound {
				t.Skip()
			}
		}
		if math.IsNaN(pmax) || math.IsInf(pmax, 0) {
			t.Skip()
		}
		c := ResponseCurve{Tmin: sim.Duration(lo), Tmax: sim.Duration(hi), Pmax: pmax, Gentle: gentle}
		got, want := c.Prob(sim.Duration(tq)), durationCurveRef(c, sim.Duration(tq))
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%+v: Prob(%d) = %v, reference %v", c, tq, got, want)
		}
		if 0 <= lo && lo < hi && 0 <= pmax && pmax <= 1 && (got < 0 || got > 1) {
			t.Fatalf("%+v: Prob(%d) = %v outside [0,1]", c, tq, got)
		}
	})
}
