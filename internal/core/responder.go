package core

import (
	"math"
	"math/rand"

	"pert/internal/sim"
)

// Decision is the outcome of offering one RTT sample to a responder.
type Decision struct {
	// Respond is true when the flow should proactively reduce its window.
	Respond bool
	// Factor is the multiplicative decrease to apply when Respond is true
	// (e.g. 0.35 means cwnd *= 0.65).
	Factor float64
	// Prob is the response probability that was in effect (exported for
	// instrumentation and tests).
	Prob float64
}

// Responder is the policy shared by PERT's RED and PI emulations: a response
// probability is derived from the congestion signal on every ACK, a biased
// coin is flipped, and positive outcomes are rate-limited to at most one
// early response per RTT (the paper's Section 3 rule, since the effect of a
// window reduction is not visible for a round trip).
type Responder interface {
	// OnRTT offers one per-ACK instantaneous RTT sample and returns the
	// response decision.
	OnRTT(now sim.Time, rtt sim.Duration) Decision
	// P returns the response probability currently in effect. Pure read: it
	// advances neither the signal nor the rate limiter, so the observability
	// layer can export it as the PERT probability series.
	P() float64
	// Signal exposes the underlying congestion predictor.
	Signal() *Signal
}

// DefaultDecreaseFactor is the paper's early-response multiplicative decrease
// (35%), derived from the buffer-sizing relationship B > f/(1-f) * BDP with
// the conservative goal of keeping the queue under half of a one-BDP buffer.
const DefaultDecreaseFactor = 0.35

// respond is the end-host half every emulated AQM shares: the congestion
// signal, the coin's generator, the decrease factor, and the gate that turns
// a probability into at most one early response per spacing interval. Each
// responder keeps only its own law for the probability.
type respond struct {
	DecreaseFactor float64

	sig      Signal
	rng      *rand.Rand
	lastResp sim.Time
	hasResp  bool
}

func newRespond(rng *rand.Rand, weight, decrease float64) respond {
	return respond{DecreaseFactor: decrease, sig: makeSignal(weight), rng: rng}
}

// Signal implements Responder.
func (g *respond) Signal() *Signal { return &g.sig }

// decide flips a coin biased to p, provided at least rtts smoothed round
// trips have passed since the previous response (0 lifts the limit), and
// records a response. Most ACKs see p = 0, so that test inlines into each
// OnRTT and the rest, including reading the spacing, stays out of line in
// flip.
func (g *respond) decide(now sim.Time, p float64, rtts int) Decision {
	if p > 0 {
		return g.flip(now, p, rtts)
	}
	return Decision{Prob: p, Factor: g.DecreaseFactor}
}

func (g *respond) flip(now sim.Time, p float64, rtts int) Decision {
	d := Decision{Prob: p, Factor: g.DecreaseFactor}
	if g.spaced(now, rtts) && g.rng.Float64() < p {
		g.fire(now, &d)
	}
	return d
}

// spaced reports whether at least rtts smoothed round trips have passed
// since the last response.
func (g *respond) spaced(now sim.Time, rtts int) bool {
	return !g.hasResp || now-g.lastResp >= g.sig.SRTT()*sim.Duration(rtts)
}

// fire records a response at now.
func (g *respond) fire(now sim.Time, d *Decision) {
	d.Respond = true
	g.lastResp = now
	g.hasResp = true
}

// REDResponder emulates gentle RED/ECN at the end host: probability from a
// ResponseCurve over the srtt_0.99 queueing-delay estimate.
type REDResponder struct {
	respond
	Curve ResponseCurve
	// Unlimited disables response rate-limiting entirely (ablation).
	Unlimited bool
}

// NewREDResponder builds the paper's standard PERT responder with history
// weight 0.99, the default curve, and a 35% decrease.
func NewREDResponder(rng *rand.Rand) *REDResponder {
	r := StandardRED(rng)
	return &r
}

// StandardRED is the responder NewREDResponder builds, by value, so that a
// controller can hold it inline and rebuild it for every connection without
// allocating.
func StandardRED(rng *rand.Rand) REDResponder {
	return REDResponder{respond: newRespond(rng, DefaultHistoryWeight, DefaultDecreaseFactor), Curve: DefaultCurve()}
}

// NewREDResponderWith builds a responder with explicit parameters (used by
// ablation benchmarks).
func NewREDResponderWith(rng *rand.Rand, curve ResponseCurve, weight, decrease float64) *REDResponder {
	return &REDResponder{respond: newRespond(rng, weight, decrease), Curve: curve}
}

// P implements Responder: the response probability the curve assigns to the
// current queueing-delay estimate.
func (r *REDResponder) P() float64 { return r.Curve.Prob(r.sig.QueueingDelay()) }

// OnRTT implements Responder.
func (r *REDResponder) OnRTT(now sim.Time, rtt sim.Duration) Decision {
	r.sig.Observe(rtt)
	rtts := 1
	if r.Unlimited {
		rtts = 0
	}
	return r.decide(now, r.Curve.Prob(r.sig.QueueingDelay()), rtts)
}

// PIResponder emulates the PI AQM of Hollot et al. at the end host
// (Section 6): the response probability integrates the error between the
// estimated queueing delay and a target delay, using the bilinear-transform
// discretization of equation (18):
//
//	p(k) = p(k-1) + Gamma*(Tq(k)-Tref) - Beta*(Tq(k-1)-Tref)
//
// with Gamma = K/m + K*delta/2 and Beta = K/m - K*delta/2. (The paper's
// equation (19) swaps beta and gamma relative to its own equation (18); we
// implement the standard discretization, which matches (18).)
type PIResponder struct {
	respond
	Gamma, Beta float64 // per-second coefficients applied to delay error
	Target      sim.Duration

	p        float64
	prevErr  float64
	havePrev bool
}

// PIParams are the continuous-time PI constants of equation (16)/(21).
type PIParams struct {
	K float64 // loop gain
	M float64 // controller zero (rad/s)
}

// DesignPERTPI computes the Theorem 2 gains for PERT/PI from the link
// capacity in packets/second, a lower bound on the number of flows, and an
// upper bound on the RTT:
//
//	m = 2*Nmin / (Rmax^2 * C)
//	K = m * |j*R*m + 1| * (2*Nmin)^2 / (Rmax^3 * C^2)
//
// Because PERT acts on queueing delay rather than queue length, the C^2 term
// replaces the C^3 of router PI — equivalently, PERT/PI parameters are router
// PI parameters multiplied by the link capacity (Section 6.1).
func DesignPERTPI(cPPS float64, nMin int, rMax sim.Duration) PIParams {
	R := rMax.Seconds()
	n2 := 2 * float64(nMin)
	m := n2 / (R * R * cPPS)
	k := m * math.Hypot(R*m, 1) * n2 * n2 / (R * R * R * cPPS * cPPS)
	return PIParams{K: k, M: m}
}

// NewPIResponder builds a PERT/PI responder. delta is the expected sampling
// interval (mean inter-ACK time) used by the bilinear discretization; target
// is the queueing-delay reference (the paper's experiments use 3 ms).
func NewPIResponder(rng *rand.Rand, params PIParams, delta, target sim.Duration) *PIResponder {
	d := delta.Seconds()
	return &PIResponder{
		respond: newRespond(rng, DefaultHistoryWeight, DefaultDecreaseFactor),
		Gamma:   params.K/params.M + params.K*d/2,
		Beta:    params.K/params.M - params.K*d/2,
		Target:  target,
	}
}

// P implements Responder.
func (r *PIResponder) P() float64 { return r.p }

// OnRTT implements Responder.
func (r *PIResponder) OnRTT(now sim.Time, rtt sim.Duration) Decision {
	r.sig.Observe(rtt)
	err := (r.sig.QueueingDelay() - r.Target).Seconds()
	if !r.havePrev {
		r.havePrev = true
		r.prevErr = err
	}
	r.p += r.Gamma*err - r.Beta*r.prevErr
	r.prevErr = err
	if r.p < 0 {
		r.p = 0
	} else if r.p > 1 {
		r.p = 1
	}
	return r.decide(now, r.p, 1)
}
