package fluid

// Hybrid coupling: the PERT/RED fluid model of equation (14) extended with a
// measured packet-arrival term, so a modeled aggregate of N background flows
// and a handful of real packet connections share one bottleneck queue.
//
// The coupling replaces the queue equation's fluid-only arrival rate N·W/R
// with N·W/R + A_p(t), where A_p is the arrival rate of real packets measured
// at the link:
//
//	dTq/dt = (N·W/R + A_p(t) − C) / C = N/(R·C)·W + A_p/C − 1
//
// A_p(t) is exactly the packet flows' own N_p·W_p/R_p contribution — measured
// rather than modeled — so packet arrivals feed back into the DDE's N and
// arrival-rate terms, and the window/probability equations see the inflated
// shared queue through Tq as usual.

// HybridInputs carries the packet-side measurements into the fluid model.
type HybridInputs struct {
	// PacketRate returns the current measured arrival rate of real packets
	// at the shared bottleneck, in packets/second. It is sampled at every
	// RK4 stage evaluation; returning a rate averaged over the last
	// co-simulation tick is the intended use.
	PacketRate func() float64
}

// HybridSystem builds the three-state DDE (14) with the measured packet
// arrival rate added to the queue equation. With in.PacketRate nil or
// returning 0 the system is exactly System(); it is the one right-hand side
// of the PERT/RED model.
func (p PERTParams) HybridSystem(in HybridInputs) *System {
	L := p.L()
	K := p.K()
	return &System{
		Dim:    3,
		MaxLag: p.R,
		F: func(_ float64, x []float64, delayed func(float64, int) float64, dx []float64) {
			wLag := delayed(p.R, 0)
			prob := linear(L, delayed(p.R, 2), p.Tmin)
			rate := 0.0
			if in.PacketRate != nil {
				rate = in.PacketRate()
			}
			dx[0] = 1/p.R - prob*x[0]*wLag/(2*p.R)
			dx[1] = p.N/(p.R*p.C)*x[0] - 1 + rate/p.C
			dx[2] = K*x[2] - K*x[1]
		},
		Clamp: clampNonNeg,
	}
}

// HybridEquilibrium returns the stationary point of the coupled system when
// the packet side contributes a constant arrival rate ap (packets/second):
// the fluid aggregate settles where N·W/R fills the capacity left over by the
// packets, W* = (C−ap)·R/N, giving p* = 2/W*² from the window equation and
// Tq* = Tmin + p*/L from the linear response curve — equation (9) with the
// effective capacity C−ap. With ap = 0 this is exactly Equilibrium().
func (p PERTParams) HybridEquilibrium(ap float64) (wStar, pStar, tqStar float64) {
	eff := p.C - ap
	if eff < 0 {
		eff = 0
	}
	wStar = p.R * eff / p.N
	pStar = 2 / (wStar * wStar)
	tqStar = p.Tmin + pStar/p.L()
	return
}
