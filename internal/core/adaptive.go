package core

import (
	"math"
	"math/rand"

	"pert/internal/sim"
)

// This file implements the adaptive pro-activeness mechanisms sketched in
// the paper's Section 7 discussion, and a REM emulation demonstrating the
// conclusion's claim that "other AQM schemes can be potentially emulated at
// the end-host".

// AdaptiveResponder wraps a REDResponder with the Section 7 options:
//
//   - EscalateSpacing: "increasing the time for the next response
//     progressively if queue lengths persist" — each response that fails to
//     bring the signal below Tmin doubles the required spacing (up to
//     MaxSpacingRTTs round trips); the spacing resets when the queue
//     estimate clears.
//   - OneShotThreshold: "limiting the probabilistic early response to once
//     when the probability exceeds some threshold (say 0.75)" — above the
//     threshold the flow responds deterministically once and then waits for
//     the signal to recede below Tmin before re-arming.
type AdaptiveResponder struct {
	*REDResponder

	EscalateSpacing  bool
	MaxSpacingRTTs   int
	OneShotThreshold float64 // 0 disables

	spacingRTTs int
	oneShotUsed bool
}

// NewAdaptiveResponder builds the standard PERT responder with both
// Section 7 mechanisms enabled (spacing escalation up to 8 RTTs, one-shot
// threshold 0.75).
func NewAdaptiveResponder(rng *rand.Rand) *AdaptiveResponder {
	return &AdaptiveResponder{
		REDResponder:     NewREDResponder(rng),
		EscalateSpacing:  true,
		MaxSpacingRTTs:   8,
		OneShotThreshold: 0.75,
		spacingRTTs:      1,
	}
}

// OnRTT implements Responder.
func (a *AdaptiveResponder) OnRTT(now sim.Time, rtt sim.Duration) Decision {
	a.sig.Observe(rtt)
	tq := a.sig.QueueingDelay()
	p := a.Curve.Prob(tq)
	d := Decision{Prob: p, Factor: a.DecreaseFactor}
	if tq < a.Curve.Tmin {
		// Queue cleared: previous responses worked; re-arm everything.
		a.spacingRTTs = 1
		a.oneShotUsed = false
		return d
	}

	if a.OneShotThreshold > 0 && p >= a.OneShotThreshold {
		// One-shot region: deterministic single response.
		if !a.oneShotUsed && a.spaced(now, a.spacingRTTs) {
			a.oneShotUsed = true
			a.fire(now, &d)
		}
	} else {
		d = a.decide(now, p, a.spacingRTTs)
	}
	// The queue persisted through this response's preconditions, so the
	// next one waits longer.
	if d.Respond && a.EscalateSpacing && a.spacingRTTs < a.MaxSpacingRTTs {
		a.spacingRTTs *= 2
	}
	return d
}

// REMResponder emulates the REM AQM (Athuraliya et al.) at the end host: a
// "price" integrates the mismatch between the estimated queueing delay and a
// target, and the response probability is 1 - Phi^(-price). Like PERT/PI it
// decouples the steady-state response rate from the queue level; unlike PI
// the probability is exponential in the price, which reacts faster to large
// excursions.
type REMResponder struct {
	respond
	Gamma  float64      // price gain per second of delay error
	Phi    float64      // probability base (> 1); REM's default 1.001
	Target sim.Duration // queueing-delay reference

	price float64
}

// NewREMResponder builds a REM emulation with the given target delay.
// Gamma and Phi default to 0.5 and 1.002 when zero.
func NewREMResponder(rng *rand.Rand, gamma, phi float64, target sim.Duration) *REMResponder {
	if gamma == 0 {
		gamma = 0.5
	}
	if phi == 0 {
		phi = 1.002
	}
	if phi <= 1 {
		panic("core: REM phi must exceed 1")
	}
	return &REMResponder{
		respond: newRespond(rng, DefaultHistoryWeight, DefaultDecreaseFactor),
		Gamma:   gamma,
		Phi:     phi,
		Target:  target,
	}
}

// Price returns the current REM price (for tests and instrumentation).
func (r *REMResponder) Price() float64 { return r.price }

// P implements Responder.
func (r *REMResponder) P() float64 {
	return 1 - math.Pow(r.Phi, -r.price)
}

// OnRTT implements Responder.
func (r *REMResponder) OnRTT(now sim.Time, rtt sim.Duration) Decision {
	r.sig.Observe(rtt)
	err := (r.sig.QueueingDelay() - r.Target).Seconds()
	r.price = math.Max(0, r.price+r.Gamma*err)
	return r.decide(now, r.P(), 1)
}
