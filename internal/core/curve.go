package core

import "pert/internal/sim"

// Ramp is gentle RED's marking law, written once for every side that runs
// it: router RED evaluates it over the average queue length in packets, and
// the end-host emulation over the estimated queueing delay (Figure 5 of the
// paper):
//
//	p = 0                              for x <  lo
//	p = pmax*(x-lo)/(hi-lo)            for lo <= x < hi
//	p = pmax + (1-pmax)*(x-hi)/hi      for hi <= x < 2*hi  (gentle)
//	p = 1                              for x >= 2*hi       (gentle)
//
// Without gentle the probability clips at pmax above hi.
func Ramp(x, lo, hi, pmax float64, gentle bool) float64 {
	switch {
	case x < lo:
		return 0
	case x < hi:
		return pmax * (x - lo) / (hi - lo)
	case !gentle:
		return pmax
	case x < 2*hi:
		return pmax + (1-pmax)*(x-hi)/hi
	default:
		return 1
	}
}

// ResponseCurve is the end host's Ramp over the estimated queueing delay.
// Thresholds are queueing delays relative to the flow's propagation-delay
// estimate; the paper uses Tmin = 5 ms, Tmax = 10 ms, Pmax = 0.05.
type ResponseCurve struct {
	Tmin   sim.Duration
	Tmax   sim.Duration
	Pmax   float64
	Gentle bool // false clips the probability at Pmax above Tmax (ablation)
}

// DefaultCurve returns the paper's fixed response curve: thresholds P+5 ms
// and P+10 ms expressed as queueing delays, with Pmax = 0.05 and the gentle
// upper ramp.
func DefaultCurve() ResponseCurve {
	return ResponseCurve{
		Tmin:   5 * sim.Millisecond,
		Tmax:   10 * sim.Millisecond,
		Pmax:   0.05,
		Gentle: true,
	}
}

// Prob returns the response probability for estimated queueing delay tq.
func (c ResponseCurve) Prob(tq sim.Duration) float64 {
	return Ramp(float64(tq), float64(c.Tmin), float64(c.Tmax), c.Pmax, c.Gentle)
}
