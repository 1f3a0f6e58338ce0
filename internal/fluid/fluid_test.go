package fluid

import (
	"math"
	"testing"
)

// fig13Params returns the paper's Figure 13(b)-(d) configuration:
// C = 100 pkt/s (1 Mbps at 1250 B), N = 5, pmax = 0.1, Tmax = 100 ms,
// Tmin = 50 ms, alpha = 0.99, delta = 0.1 ms.
func fig13Params(r float64) PERTParams {
	return PERTParams{
		C: 100, N: 5, R: r,
		Tmin: 0.05, Tmax: 0.1, Pmax: 0.1,
		Alpha: 0.99, Delta: 1e-4,
	}
}

func TestDDESolvesExponentialDecay(t *testing.T) {
	// dx/dt = -x with a dummy lag: x(t) = e^{-t}.
	s := &System{
		Dim:    1,
		MaxLag: 0.1,
		F: func(_ float64, x []float64, _ func(float64, int) float64, dx []float64) {
			dx[0] = -x[0]
		},
	}
	got := s.Integrate([]float64{1}, 0, 1, 1e-3, nil)
	if math.Abs(got[0]-math.Exp(-1)) > 1e-6 {
		t.Fatalf("x(1) = %v, want %v", got[0], math.Exp(-1))
	}
}

func TestDDEDelayedLogistic(t *testing.T) {
	// The delayed relaxation dx/dt = x(t-tau) - x(t) converges to the
	// constant history value (here 2) from any start equal to history.
	s := &System{
		Dim:    1,
		MaxLag: 0.5,
		F: func(_ float64, x []float64, d func(float64, int) float64, dx []float64) {
			dx[0] = d(0.5, 0) - x[0]
		},
	}
	got := s.Integrate([]float64{2}, 0, 10, 1e-3, nil)
	if math.Abs(got[0]-2) > 1e-9 {
		t.Fatalf("fixed point drifted: %v", got[0])
	}
}

func TestDDEDelayedOscillator(t *testing.T) {
	// dx/dt = -pi/2 * x(t-1) with x ≡ cos on history oscillates with
	// period 4; verify the solution stays bounded and sign-alternates.
	s := &System{
		Dim:    1,
		MaxLag: 1,
		F: func(_ float64, x []float64, d func(float64, int) float64, dx []float64) {
			dx[0] = -math.Pi / 2 * d(1, 0)
		},
	}
	var min, max float64
	s.Integrate([]float64{1}, 0, 20, 1e-3, func(_ float64, x []float64) {
		if x[0] < min {
			min = x[0]
		}
		if x[0] > max {
			max = x[0]
		}
	})
	if min > -0.5 || max < 0.5 {
		t.Fatalf("no oscillation: min=%v max=%v", min, max)
	}
	if min < -3 || max > 3 {
		t.Fatalf("marginal oscillator blew up: min=%v max=%v", min, max)
	}
}

func TestEquilibriumFormula(t *testing.T) {
	p := fig13Params(0.1)
	w, pr, tq := p.Equilibrium()
	if math.Abs(w-2) > 1e-12 { // RC/N = 0.1*100/5
		t.Fatalf("W* = %v", w)
	}
	if math.Abs(pr-0.5) > 1e-12 { // 2N^2/(RC)^2 = 50/100
		t.Fatalf("p* = %v", pr)
	}
	if math.Abs(tq-(0.05+0.5/2)) > 1e-12 {
		t.Fatalf("Tq* = %v", tq)
	}
	// p* = 2/W*^2 identity from Section 5.2.
	if math.Abs(pr-2/(w*w)) > 1e-12 {
		t.Fatal("p* != 2/W*^2")
	}
}

func TestTheorem1BoundaryNear171ms(t *testing.T) {
	// The paper reports the stability boundary at R = 171 ms for the
	// Figure 13 configuration.
	p := fig13Params(0.1)
	b := StabilityBoundaryR(p, 0.05, 0.3, 0.001)
	if b < 0.165 || b > 0.176 {
		t.Fatalf("Theorem 1 boundary = %v s, want ~0.171", b)
	}
	if _, _, ok := StableTheorem1(fig13Params(0.16), 5, 0.16); !ok {
		t.Fatal("R=160 ms should satisfy Theorem 1")
	}
	if _, _, ok := StableTheorem1(fig13Params(0.18), 5, 0.18); ok {
		t.Fatal("R=180 ms should violate Theorem 1")
	}
}

func TestPERTTrajectoryStableConverges(t *testing.T) {
	p := fig13Params(0.1)
	final := p.Trajectory(200, 1e-3, nil)
	w, _, tq := p.Equilibrium()
	if math.Abs(final[0]-w) > 0.15*w {
		t.Fatalf("W(end) = %v, want ~%v", final[0], w)
	}
	if math.Abs(final[2]-tq) > 0.2*tq {
		t.Fatalf("Tq(end) = %v, want ~%v", final[2], tq)
	}
}

func TestPERTTrajectoryDampedOscillationsNearBoundary(t *testing.T) {
	// R = 160 ms: stable but close to the boundary; converges after
	// decaying oscillations (Figure 13c).
	p := fig13Params(0.16)
	w, _, _ := p.Equilibrium()
	var lateDev float64
	p.Trajectory(400, 1e-3, func(t float64, x []float64) {
		if t > 350 {
			if d := math.Abs(x[0] - w); d > lateDev {
				lateDev = d
			}
		}
	})
	if lateDev > 0.25*w {
		t.Fatalf("late deviation %v of W* = %v: did not converge", lateDev, w)
	}
}

func TestPERTTrajectoryUnstableBeyondBoundary(t *testing.T) {
	// R = 190 ms: beyond the boundary; persistent oscillations (the paper
	// observes instability from ~171 ms on).
	p := fig13Params(0.19)
	w, _, _ := p.Equilibrium()
	var lateDev float64
	p.Trajectory(400, 1e-3, func(t float64, x []float64) {
		if t > 350 {
			if d := math.Abs(x[0] - w); d > lateDev {
				lateDev = d
			}
		}
	})
	if lateDev < 0.2*w {
		t.Fatalf("late deviation %v of W* = %v: expected persistent oscillation", lateDev, w)
	}
}

func TestMinDeltaMonotoneInN(t *testing.T) {
	// Figure 13(a): the minimum stable sampling interval decreases with the
	// number of flows (C = 10 Mbps = 1000 pkt/s at 1250 B, R = 200 ms).
	base := PERTParams{
		C: 1000, N: 1, R: 0.2,
		Tmin: 0.05, Tmax: 0.1, Pmax: 0.1, Alpha: 0.99, Delta: 0.1,
	}
	prev := math.Inf(1)
	for n := 1.0; n <= 50; n++ {
		d := MinDelta(base, n, 0.2)
		if d < 0 {
			t.Fatalf("negative delta at N=%v", n)
		}
		if d > prev+1e-12 {
			t.Fatalf("min delta not monotone at N=%v: %v > %v", n, d, prev)
		}
		prev = d
	}
	// The paper reads ~0.1 s near N = 40.
	d40 := MinDelta(base, 40, 0.2)
	if d40 <= 0 || d40 > 1 {
		t.Fatalf("min delta at N=40 = %v, want order 0.1 s", d40)
	}
}

func TestMinDeltaConsistentWithTheorem1(t *testing.T) {
	// For any N, using delta = MinDelta must satisfy Theorem 1, and using
	// half of it (when positive) must violate it.
	base := fig13Params(0.2)
	for n := 1.0; n <= 20; n++ {
		base.N = n
		d := MinDelta(base, n, base.R)
		if d == 0 {
			continue
		}
		p := base
		p.Delta = d * 1.0001
		if _, _, ok := StableTheorem1(p, n, base.R); !ok {
			t.Fatalf("N=%v: delta=MinDelta does not satisfy Theorem 1", n)
		}
		p.Delta = d / 2
		if _, _, ok := StableTheorem1(p, n, base.R); ok {
			t.Fatalf("N=%v: delta=MinDelta/2 should violate Theorem 1", n)
		}
	}
}

func TestREDModelEquilibrium(t *testing.T) {
	p := REDParams{C: 1000, N: 50, R: 0.1, MinTh: 50, MaxTh: 150, Pmax: 0.1, Wq: 0.0001}
	w, pr, q := p.Equilibrium()
	if math.Abs(w-2) > 1e-12 || pr <= 0 || q <= p.MinTh {
		t.Fatalf("equilibrium: W*=%v p*=%v q*=%v", w, pr, q)
	}
	final := p.Trajectory(300, 1e-3, nil)
	if math.Abs(final[0]-w) > 0.2*w {
		t.Fatalf("W(end) = %v, want ~%v", final[0], w)
	}
}

func TestPERTStabilityRegionExceedsRED(t *testing.T) {
	// Section 5.4: with L_PERT = L_RED*C the two conditions have identical
	// left-hand sides; PERT's advantage is the sampling interval. A PERT
	// user samples once per own packet (delta ~ N/C) while RED samples
	// every packet (delta = 1/C), so |K_PERT| < |K_RED|, inflating PERT's
	// right-hand side and enlarging the certified stability region.
	c, n, r := 1000.0, 5.0, 0.2
	pert := PERTParams{C: c, N: n, R: r, Tmin: 0.05, Tmax: 0.1, Pmax: 0.1,
		Alpha: 0.99, Delta: n / c} // per-flow sampling
	red := REDParams{C: c, N: n, R: r, MinTh: 0.05 * c, MaxTh: 0.1 * c,
		Pmax: 0.1, Wq: 1 - pert.Alpha} // per-packet sampling, same weight
	lp, rp, _ := StableTheorem1(pert, n, r)
	lr, rr, _ := StableRED(red, n, r)
	if math.Abs(lp-lr) > 1e-9*lp {
		t.Fatalf("lhs should match: PERT %v, RED %v", lp, lr)
	}
	if !(rp > rr) {
		t.Fatalf("PERT rhs %v should exceed RED rhs %v", rp, rr)
	}
}
