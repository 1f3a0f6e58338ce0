package fluid

import "math"

// REDParams are the constants of the classic TCP/RED fluid model of Misra,
// Gong and Towsley (SIGCOMM 2000), which Section 5 contrasts PERT with. The
// averaging filter runs per packet (sampling interval 1/C).
type REDParams struct {
	C     float64 // link capacity, packets/second
	N     float64 // number of flows
	R     float64 // round-trip time, seconds
	MinTh float64 // lower average-queue threshold, packets
	MaxTh float64 // upper threshold, packets
	Pmax  float64
	Wq    float64 // averaging weight
}

// L returns L_RED = pmax/(maxth - minth), probability per packet of average
// queue.
func (p REDParams) L() float64 { return p.Pmax / (p.MaxTh - p.MinTh) }

// K returns the averaging-filter pole ln(1-wq)*C (negative).
func (p REDParams) K() float64 { return math.Log(1-p.Wq) * p.C }

// Equilibrium returns W* and p* (the same TCP relation as PERT) plus the
// average queue q* that generates p* on the linear RED curve.
func (p REDParams) Equilibrium() (wStar, pStar, qStar float64) {
	wStar = p.R * p.C / p.N
	pStar = 2 * p.N * p.N / (p.R * p.R * p.C * p.C)
	qStar = p.MinTh + pStar/p.L()
	return
}

// System builds the three-state DDE: x1 = W (packets), x2 = q (packets),
// x3 = avg (packets). Unlike PERT, the drop probability acts with one RTT of
// feedback delay (the router marks, the sender reacts an RTT later).
func (p REDParams) System() *System {
	L := p.L()
	K := p.K()
	return &System{
		Dim:    3,
		MaxLag: p.R,
		F: func(_ float64, x []float64, delayed func(float64, int) float64, dx []float64) {
			wLag := delayed(p.R, 0)
			prob := linear(L, delayed(p.R, 2), p.MinTh)
			dx[0] = 1/p.R - prob*x[0]*wLag/(2*p.R)
			dx[1] = p.N/p.R*x[0] - p.C
			dx[2] = K*x[2] - K*x[1]
		},
		Clamp: clampNonNeg,
	}
}

// StableRED evaluates the router-RED analog of condition (11): the same
// expression with C^3 in place of C^2 (Section 5.4), certifying local
// stability for N >= Nmin, R* <= Rmax.
func StableRED(p REDParams, nMin, rMax float64) (lhs, rhs float64, stable bool) {
	wg := CrossoverFreq(p.C, nMin, rMax)
	K := p.K()
	lhs = p.L() * math.Pow(rMax, 3) * math.Pow(p.C, 3) / math.Pow(2*nMin, 2)
	rhs = math.Sqrt(wg*wg/(K*K) + 1)
	return lhs, rhs, lhs <= rhs
}

// Trajectory integrates the TCP/RED model from (1,1,1).
func (p REDParams) Trajectory(dur, h float64, observe func(t float64, x []float64)) []float64 {
	return p.System().Integrate([]float64{1, 1, 1}, 0, dur, h, observe)
}
