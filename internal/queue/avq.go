package queue

import (
	"math/rand"

	"pert/internal/netem"
	"pert/internal/sim"
)

// AVQ implements the Adaptive Virtual Queue of Kunniyur and Srikant
// (SIGCOMM 2001), another AQM from the paper's citation list. A fictitious
// queue with capacity gamma*C (gamma < 1) is served alongside the real one;
// arrivals that would overflow the virtual queue mark (or drop) the real
// packet. The virtual capacity adapts so the link is driven to the desired
// utilization gamma with an essentially empty real queue.
type AVQ struct {
	aqm
	Gamma float64 // desired utilization (default 0.98)
	Alpha float64 // damping / adaptation gain (default 0.15)

	CapacityPPS float64

	vq   float64 // virtual queue occupancy, packets
	vcap float64 // virtual capacity, packets/second
	last sim.Time
	init bool
}

// NewAVQ builds an AVQ queue for a link of the given rate.
func NewAVQ(limit int, capacityPPS float64, ecn bool, rng *rand.Rand) *AVQ {
	if limit <= 0 || capacityPPS <= 0 {
		panic("queue: AVQ requires positive limit and capacity")
	}
	// AVQ's virtual-queue decision is deterministic and draws nothing, but
	// the generator is kept so it honors the same BindRand contract.
	return &AVQ{
		aqm:         aqm{limit: limit, ecn: ecn, rng: rng},
		Gamma:       0.98,
		Alpha:       0.15,
		CapacityPPS: capacityPPS,
	}
}

// VirtualCapacity returns the current adapted virtual capacity in pkt/s.
func (a *AVQ) VirtualCapacity() float64 { return a.vcap }

// Enqueue implements netem.Discipline, running the AVQ fluid update at each
// arrival (the form given in the AVQ paper's pseudocode).
func (a *AVQ) Enqueue(p *netem.Packet, now sim.Time) bool {
	if !a.init {
		a.init = true
		a.last = now
		a.vcap = a.Gamma * a.CapacityPPS
	}
	dt := (now - a.last).Seconds()
	a.last = now
	// Drain the virtual queue at the virtual capacity; adapt the virtual
	// capacity toward the target utilization:
	//   VC' = alpha * (gamma*C - lambda)  implemented incrementally.
	a.vq -= a.vcap * dt
	if a.vq < 0 {
		a.vq = 0
	}
	a.vcap += a.Alpha * (a.Gamma*a.CapacityPPS*dt - 1) // -1: this arrival
	if a.vcap < 0.05*a.CapacityPPS {
		a.vcap = 0.05 * a.CapacityPPS
	}
	if a.vcap > a.CapacityPPS {
		a.vcap = a.CapacityPPS
	}

	if a.full() {
		return false
	}
	// Virtual buffer has the same size as the real one; a packet that
	// overflows it is signalled and, when marked, not counted into it.
	if a.vq+1 > float64(a.limit) {
		if !a.early(p) {
			return false
		}
	} else {
		a.vq++
	}
	a.q.push(p)
	return true
}

var _ netem.Discipline = (*AVQ)(nil)
var _ netem.Discipline = (*REM)(nil)
var _ netem.Discipline = (*PI)(nil)
var _ netem.Discipline = (*RED)(nil)
var _ netem.Discipline = (*AdaptiveRED)(nil)
var _ netem.Discipline = (*DropTail)(nil)
