package queue

import (
	"math"
	"math/rand"

	"pert/internal/netem"
	"pert/internal/sim"
)

// REM implements Random Exponential Marking (Athuraliya, Li, Low, Yin — IEEE
// Network 2001), one of the AQM schemes the paper cites alongside RED and
// PI. A link "price" integrates the mismatch between arrivals and capacity
// plus the backlog above a small target; packets are marked with probability
// 1 - Phi^(-price), which factors across links of a path — the property REM
// is known for.
type REM struct {
	aqm
	Gamma  float64 // price step size
	Phi    float64 // probability base, > 1
	Alpha  float64 // weight of the backlog term
	BRef   float64 // target backlog, packets
	Period sim.Duration

	CapacityPPS float64 // link rate in packets/second

	price    float64
	arrivals uint64
	lastArr  uint64
	last     sim.Time
	init     bool
}

// NewREM builds a REM queue with the published defaults: gamma = 0.001,
// phi = 1.001, alpha = 0.1, update period 10 ms, target backlog 20 packets.
func NewREM(limit int, capacityPPS float64, ecn bool, rng *rand.Rand) *REM {
	if limit <= 0 || capacityPPS <= 0 {
		panic("queue: REM requires positive limit and capacity")
	}
	return &REM{
		aqm:         aqm{limit: limit, ecn: ecn, rng: rng},
		Gamma:       0.001,
		Phi:         1.001,
		Alpha:       0.1,
		BRef:        20,
		Period:      10 * sim.Millisecond,
		CapacityPPS: capacityPPS,
	}
}

// Price returns the current link price.
func (r *REM) Price() float64 { return r.price }

// P returns the current marking probability.
func (r *REM) P() float64 { return 1 - math.Pow(r.Phi, -r.price) }

// update advances the price: p <- max(0, p + gamma*(alpha*(b - bref) + x - c))
// where b is the backlog, x the measured input rate, and c the capacity.
func (r *REM) update(now sim.Time) {
	if !r.init {
		r.init = true
		r.last = now
		return
	}
	for now-r.last >= r.Period {
		dt := r.Period.Seconds()
		x := float64(r.arrivals-r.lastArr) / dt
		r.lastArr = r.arrivals
		b := float64(r.q.len())
		r.price = math.Max(0, r.price+r.Gamma*(r.Alpha*(b-r.BRef)+(x-r.CapacityPPS)*dt))
		r.last += r.Period
	}
}

// Enqueue implements netem.Discipline.
func (r *REM) Enqueue(p *netem.Packet, now sim.Time) bool {
	r.update(now)
	r.arrivals++
	if r.full() {
		return false
	}
	if pr := r.P(); pr > 0 && r.rng.Float64() < pr && !r.early(p) {
		return false
	}
	r.q.push(p)
	return true
}
