package fluid

import "math"

// PERTParams are the constants of the PERT/RED fluid model (equations
// (2)-(7), reduced to the DDE system (14)).
type PERTParams struct {
	C     float64 // link capacity, packets/second
	N     float64 // number of flows
	R     float64 // round-trip time, seconds (assumed constant, as in Sec 5.2)
	Tmin  float64 // lower queueing-delay threshold, seconds
	Tmax  float64 // upper threshold, seconds
	Pmax  float64 // response probability at Tmax
	Alpha float64 // EWMA history weight (0.99)
	Delta float64 // sampling interval, seconds
}

// L returns L_PERT = pmax/(Tmax - Tmin) from equation (10).
func (p PERTParams) L() float64 { return p.Pmax / (p.Tmax - p.Tmin) }

// K returns K = ln(alpha)/delta from equation (10); it is negative.
func (p PERTParams) K() float64 { return math.Log(p.Alpha) / p.Delta }

// Equilibrium returns the stationary point of equation (9): window W*,
// response probability p*, and the queueing delay Tq* at which the linear
// response curve produces p*.
func (p PERTParams) Equilibrium() (wStar, pStar, tqStar float64) {
	wStar = p.R * p.C / p.N
	pStar = 2 * p.N * p.N / (p.R * p.R * p.C * p.C)
	tqStar = p.Tmin + pStar/p.L()
	return
}

// Prob returns the end hosts' response probability at smoothed queueing
// delay tqHat: the linear response curve L·(T̂q−Tmin), clamped to [0,1].
func (p PERTParams) Prob(tqHat float64) float64 { return linear(p.L(), tqHat, p.Tmin) }

// System builds the three-state DDE (14): x1 = W (window, packets),
// x2 = actual queueing delay (seconds), x3 = smoothed queueing delay
// perceived by the end host (seconds). It is HybridSystem with no packet
// arrivals.
func (p PERTParams) System() *System { return p.HybridSystem(HybridInputs{}) }

// linear is the marking law every fluid model of a RED-like AQM shares: the
// probability L·(x−lo) of the curve's linear segment, clamped to [0,1]. PERT
// evaluates it over the smoothed queueing delay, router RED over the average
// queue length.
func linear(L, x, lo float64) float64 {
	prob := L * (x - lo)
	if prob < 0 {
		return 0
	} else if prob > 1 {
		return 1
	}
	return prob
}

// clampNonNeg floors every state component at zero: windows, queues and
// their averages cannot go negative.
func clampNonNeg(x []float64) {
	for i := range x {
		if x[i] < 0 {
			x[i] = 0
		}
	}
}

// Trajectory integrates the model from (1 pkt, 1 s, 1 s) — the paper's
// Figure 13 initial point — for dur seconds with step h, invoking observe at
// each step.
func (p PERTParams) Trajectory(dur, h float64, observe func(t float64, x []float64)) []float64 {
	return p.System().Integrate([]float64{1, 1, 1}, 0, dur, h, observe)
}
