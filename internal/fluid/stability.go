package fluid

import "math"

// CrossoverFreq returns w_g of equation (12):
// w_g = 0.1 * min(2*Nmin/(Rmax^2*C), 1/Rmax).
func CrossoverFreq(c float64, nMin float64, rMax float64) float64 {
	return 0.1 * math.Min(2*nMin/(rMax*rMax*c), 1/rMax)
}

// StableTheorem1 evaluates the Theorem 1 sufficient condition (11)-(12) for
// the PERT/RED system: returns the left- and right-hand sides and whether
// LHS <= RHS (locally stable for all N >= Nmin, R* <= Rmax).
func StableTheorem1(p PERTParams, nMin, rMax float64) (lhs, rhs float64, stable bool) {
	wg := CrossoverFreq(p.C, nMin, rMax)
	K := p.K()
	lhs = p.L() * math.Pow(rMax, 3) * p.C * p.C / math.Pow(2*nMin, 2)
	rhs = math.Sqrt(wg*wg/(K*K) + 1)
	return lhs, rhs, lhs <= rhs
}

// MinDelta returns the smallest sampling interval delta satisfying equation
// (13) for the given configuration:
//
//	delta >= -ln(alpha)/(4*Nmin^2*w_g) * sqrt(L^2*Rmax^6*C^4 - 16*Nmin^4)
//
// When the radicand is non-positive the condition holds for every delta and
// MinDelta returns 0.
func MinDelta(p PERTParams, nMin, rMax float64) float64 {
	wg := CrossoverFreq(p.C, nMin, rMax)
	L := p.L()
	rad := L*L*math.Pow(rMax, 6)*math.Pow(p.C, 4) - 16*math.Pow(nMin, 4)
	if rad <= 0 {
		return 0
	}
	return -math.Log(p.Alpha) / (4 * nMin * nMin * wg) * math.Sqrt(rad)
}

// StabilityBoundaryR sweeps R upward from rLo to rHi in steps of dr and
// returns the largest R for which Theorem 1 still certifies stability (with
// Nmin = p.N, Rmax = R). Returns rLo-dr if none are stable.
func StabilityBoundaryR(p PERTParams, rLo, rHi, dr float64) float64 {
	last := rLo - dr
	for r := rLo; r <= rHi; r += dr {
		if _, _, ok := StableTheorem1(p, p.N, r); ok {
			last = r
		} else {
			break
		}
	}
	return last
}
