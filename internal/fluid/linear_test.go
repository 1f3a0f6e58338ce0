package fluid

import (
	"math"
	"math/rand"
	"testing"
)

// linearRef is the clamped L·(x−lo) law written inline with if/else, the
// reference linear must reproduce bit for bit.
func linearRef(L, x, lo float64) float64 {
	prob := L * (x - lo)
	if prob < 0 {
		prob = 0
	} else if prob > 1 {
		prob = 1
	}
	return prob
}

// TestLinearMatchesReference compares linear and PERTParams.Prob with the
// reference over random slopes and signals plus each clamp's breakpoint
// (x = lo and x = lo + 1/L) and one ulp either side.
func TestLinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	check := func(L, x, lo float64) {
		t.Helper()
		if got, want := linear(L, x, lo), linearRef(L, x, lo); got != want {
			t.Fatalf("linear(%v, %v, %v) = %v, reference %v", L, x, lo, got, want)
		}
	}
	params := []PERTParams{fig13Params(0.1), {Tmin: 0.005, Tmax: 0.105, Pmax: 0.1}}
	for i := 0; i < 200; i++ {
		lo := rng.Float64() * 0.1
		params = append(params, PERTParams{Tmin: lo, Tmax: lo + 1e-6 + rng.Float64(), Pmax: rng.Float64()})
	}
	for _, p := range params {
		L, lo := p.L(), p.Tmin
		for _, b := range []float64{0, lo, lo + 1/L} {
			for _, x := range []float64{math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1))} {
				check(L, x, lo)
				if got, want := p.Prob(x), linearRef(L, x, lo); got != want {
					t.Fatalf("%+v: Prob(%v) = %v, reference %v", p, x, got, want)
				}
			}
		}
		for i := 0; i < 200; i++ {
			check(L, rng.Float64()*2*(lo+1/L), lo)
		}
	}
	// Router RED's fluid model evaluates the same law in packets.
	for i := 0; i < 1000; i++ {
		r := REDParams{MinTh: rng.Float64() * 100, MaxTh: 100 + rng.Float64()*500, Pmax: rng.Float64()}
		check(r.L(), rng.Float64()*1000, r.MinTh)
	}
}
