package queue

import (
	"math"
	"math/rand"

	"pert/internal/netem"
	"pert/internal/sim"
)

// PIGains are the discretized proportional-integral controller coefficients:
// p(k) = p(k-1) + A*(q(k)-qref) - B*(q(k-1)-qref), sampled every Interval.
type PIGains struct {
	A, B     float64
	Interval sim.Duration
}

// DesignPI derives PI gains for a router queue from link and population
// bounds, following Hollot et al. (INFOCOM 2001): the controller zero cancels
// the slow TCP-window pole at m = 2*Nmin/(Rmax^2*C) and the loop gain K is
// set for unity magnitude at the crossover. C is in packets/second, freq is
// the sampling frequency in Hz. For Hollot's published example
// (C=3750 pkt/s, Nmin=60, Rmax=246 ms, 160 Hz) this yields gains within a few
// percent of their a=1.822e-5, b=1.816e-5.
func DesignPI(cPPS float64, nMin int, rMax sim.Duration, freq float64) PIGains {
	R := rMax.Seconds()
	m := 2 * float64(nMin) / (R * R * cPPS)
	// Crossover at the zero frequency; loop |L(jw)| = K*C^3/(2N) placed at 1.
	// Router PI acts on queue length, giving the C^3 scaling the paper
	// contrasts with PERT's C^2 (Section 6).
	k := m * math.Hypot(R*m, 1) * math.Pow(2*float64(nMin), 2) / (math.Pow(R, 3) * math.Pow(cPPS, 3))
	dt := 1 / freq
	return PIGains{
		A:        k/m + k*dt/2,
		B:        k/m - k*dt/2,
		Interval: sim.Seconds(dt),
	}
}

// PI is the proportional-integral AQM of Hollot et al.: the marking
// probability integrates the instantaneous queue-length error against a
// reference QRef, removing RED's steady-state error and its averaging-induced
// sluggishness. Marking decisions are per-arrival with the current p.
type PI struct {
	aqm
	QRef  float64 // reference queue length, packets
	Gains PIGains

	p    float64 // current marking probability
	qOld float64 // queue sample at previous controller update
	last sim.Time
	init bool
}

// NewPI returns a PI queue with hard capacity limit packets and reference
// queue qref.
func NewPI(limit int, qref float64, g PIGains, ecn bool, rng *rand.Rand) *PI {
	if limit <= 0 {
		panic("queue: non-positive PI limit")
	}
	if g.Interval <= 0 {
		panic("queue: PI gains require a positive sampling interval")
	}
	return &PI{aqm: aqm{limit: limit, ecn: ecn, rng: rng}, QRef: qref, Gains: g}
}

// P returns the controller's current marking probability.
func (pi *PI) P() float64 { return pi.p }

// update advances the controller to time now, applying one step per elapsed
// sampling interval. Running the difference equation on the arrival path
// (rather than on a timer) keeps the discipline self-contained; multiple
// missed intervals are applied iteratively with the same queue sample, which
// matches the behaviour of a timer-driven controller over an idle period.
func (pi *PI) update(now sim.Time) {
	if !pi.init {
		pi.init = true
		pi.last = now
		pi.qOld = float64(pi.q.len())
		return
	}
	steps := int((now - pi.last) / pi.Gains.Interval)
	if steps <= 0 {
		return
	}
	if steps > 1000 {
		steps = 1000 // long idle: converged long ago
	}
	q := float64(pi.q.len())
	for i := 0; i < steps; i++ {
		pi.p += pi.Gains.A*(q-pi.QRef) - pi.Gains.B*(pi.qOld-pi.QRef)
		pi.p = math.Max(0, math.Min(1, pi.p))
		pi.qOld = q
	}
	pi.last += sim.Time(steps) * pi.Gains.Interval
}

// Enqueue implements netem.Discipline.
func (pi *PI) Enqueue(p *netem.Packet, now sim.Time) bool {
	pi.update(now)
	if pi.full() {
		return false
	}
	if pi.p > 0 && pi.rng.Float64() < pi.p && !pi.early(p) {
		return false
	}
	pi.q.push(p)
	return true
}
