package netem

import (
	"math/rand"

	"pert/internal/sim"
)

// Impairment injects deterministic non-congestive faults on one link: random
// wire loss, packet duplication, and bounded reordering. It owns a dedicated
// seeded RNG so attaching an impairment never perturbs the simulation's main
// random stream — a run with every probability at zero is bit-identical to a
// run with no impairment at all, because the zero paths draw nothing.
//
// Faults apply after a packet finishes transmission (it consumed link
// capacity) and before delivery, modeling corruption on the wire rather than
// queue overflow: the losses PERT must distinguish from congestion.
type Impairment struct {
	// Loss is the probability a transmitted packet is lost on the wire.
	Loss float64
	// Dup is the probability a delivered packet is delivered twice (the
	// copy shares the original's arrival time plus one transmission time).
	Dup float64
	// Reorder is the probability a packet is held back by an extra delay
	// uniform in (0, ReorderMax], letting later packets overtake it.
	// ReorderMax must be positive when Reorder is.
	Reorder    float64
	ReorderMax sim.Duration

	rng *rand.Rand
}

// ImpairStats counts fault events injected on one link.
type ImpairStats struct {
	WireLost   uint64 // transmitted but lost on the wire
	Duplicated uint64 // extra copies delivered
	Reordered  uint64 // packets held back past a successor
	Blackholed uint64 // offered or transmitted while the link was down
}

// NewImpairment returns an impairment with its own deterministic RNG. The
// fault probabilities start at zero; set the fields before the run starts.
func NewImpairment(seed int64) *Impairment {
	return &Impairment{rng: rand.New(rand.NewSource(seed))}
}

// SetImpairment attaches imp to the link (nil detaches). Must be called
// before traffic flows; swapping impairments mid-run would make the fault
// sequence depend on wall-clock attach order rather than the seed.
func (l *Link) SetImpairment(imp *Impairment) {
	if imp != nil && imp.Reorder > 0 && imp.ReorderMax <= 0 {
		panic("netem: Impairment.Reorder needs a positive ReorderMax")
	}
	l.impair = imp
}

// Impairments returns the link's fault counters.
func (l *Link) Impairments() ImpairStats { return l.impairStats }

// Up reports whether the link is currently up. Links start up; LinkSchedule
// or SetUp flap them.
func (l *Link) Up() bool { return !l.down }

// SetUp changes the link's up/down state. A down link blackholes traffic:
// packets offered to it are dropped immediately, and packets it finishes
// transmitting are lost instead of delivered (the queue keeps draining, so a
// revived link starts fresh rather than replaying a stale backlog). Packets
// already propagating when the link goes down were on the wire and still
// arrive.
func (l *Link) SetUp(up bool) { l.down = !up }

// LinkChange is one step of a LinkSchedule: at time At, apply the non-zero
// fields. Capacity and Delay of zero mean "unchanged" (links cannot change to
// zero capacity — take the link down instead). Down and Up flap the link;
// setting both is rejected.
type LinkChange struct {
	At       sim.Time
	Capacity float64      // bits/s; 0 = unchanged
	Delay    sim.Duration // propagation; 0 = unchanged
	Down     bool
	Up       bool
}

// LinkSchedule is a time-driven sequence of link changes — the mid-run
// capacity shifts, delay steps, and link flaps of the ext-flap experiment.
type LinkSchedule []LinkChange

// HasDelayChange reports whether any step changes the link's propagation
// delay. Boundary links of a partitioned network reject such schedules: the
// cross-shard port's conservative lookahead is fixed at the link's Delay
// when the partition is cut, so a mid-run delay step would either violate
// the lookahead bound (shrink) or silently waste parallelism (grow).
func (s LinkSchedule) HasDelayChange() bool {
	for _, c := range s {
		if c.Delay > 0 {
			return true
		}
	}
	return false
}

// Apply schedules every change on the link's engine and records the
// schedule on the link. Call once, before the run starts; a later
// Partition re-arms the recorded events on the owning domain's engine.
func (s LinkSchedule) Apply(l *Link) {
	for _, c := range s {
		if c.Capacity < 0 {
			panic("netem: LinkChange with negative capacity")
		}
		if c.Down && c.Up {
			panic("netem: LinkChange cannot be both Down and Up")
		}
		l.armChange(c)
	}
	l.sched = append(l.sched, s...)
}

// armChange schedules one validated change on the link's current engine,
// keeping the event handle for migration.
func (l *Link) armChange(c LinkChange) {
	ev := l.eng.At(c.At, func() {
		if c.Capacity > 0 {
			l.SetCapacity(c.Capacity)
		}
		if c.Delay > 0 {
			l.Delay = c.Delay
		}
		if c.Down {
			l.SetUp(false)
		}
		if c.Up {
			l.SetUp(true)
		}
	})
	l.schedEvents = append(l.schedEvents, ev)
}

// migrateSchedule moves the link's pending schedule events onto its
// (post-Partition) owning engine: cancel on the old engine — Cancel
// consumes no sequence numbers, so shard 0's event order is untouched —
// then re-arm on l.eng. Called by Partition before the run starts, while
// every recorded handle is still pending.
func (l *Link) migrateSchedule() {
	if len(l.sched) == 0 {
		return
	}
	for _, ev := range l.schedEvents {
		ev.Cancel()
	}
	l.schedEvents = l.schedEvents[:0]
	for _, c := range l.sched {
		l.armChange(c)
	}
}

// deliver schedules the packet's arrival at l.To after the given propagation
// delay, applying wire-level impairments. It is the single exit point from a
// completed transmission; conservation accounting moves the packet from the
// transmitter into flight (or into the dropped column) here.
func (l *Link) deliver(p *Packet, delay sim.Duration) {
	acct := &l.dom.acct
	if l.down {
		// Carrier gone mid-transmission: the bits went nowhere.
		l.impairStats.Blackholed++
		acct.Dropped++
		l.dom.releasePacket(p)
		return
	}
	if imp := l.impair; imp != nil {
		if imp.Loss > 0 && imp.rng.Float64() < imp.Loss {
			l.impairStats.WireLost++
			acct.Dropped++
			l.dom.releasePacket(p)
			return
		}
		if imp.Reorder > 0 && imp.rng.Float64() < imp.Reorder {
			// Hold this packet back without raising the FIFO floor, so
			// successors may overtake it — bounded by ReorderMax.
			extra := 1 + imp.rng.Int63n(int64(imp.ReorderMax))
			l.impairStats.Reordered++
			acct.InFlight++
			arrival := l.eng.Now() + delay + sim.Duration(extra)
			l.eng.Post(arrival, l.arriveFn, p)
			l.maybeDup(p, delay)
			return
		}
	}
	arrival := l.eng.Now() + delay
	// FIFO: never deliver before an earlier packet on this link.
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery
	}
	l.lastDelivery = arrival
	acct.InFlight++
	l.arrivals.Post(arrival, p)
	l.maybeDup(p, delay)
}

// maybeDup delivers an independent copy of the packet one transmission time
// later, as if the wire echoed it.
func (l *Link) maybeDup(p *Packet, delay sim.Duration) {
	imp := l.impair
	if imp == nil || imp.Dup <= 0 || imp.rng.Float64() >= imp.Dup {
		return
	}
	l.impairStats.Duplicated++
	acct := &l.dom.acct
	acct.Duplicated++
	acct.InFlight++
	cp := l.dom.clonePacket(p)
	arrival := l.eng.Now() + delay + l.txTime(p.Size)
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery
	}
	l.lastDelivery = arrival
	l.arrivals.Post(arrival, cp)
}

// arrive completes a packet's flight across the link.
func (l *Link) arrive(p *Packet) {
	l.dom.acct.InFlight--
	l.To.Receive(p)
}

// deliverCross is deliver for boundary links: arrivals go through the
// cross-shard port instead of the local event heap. The impairment RNG
// draws happen in exactly deliver's order (loss, reorder, dup), so a
// link's fault sequence depends only on its seed, not on which side of a
// partition cut it landed.
//
// Two accounting rules differ from the serial path. The sender's domain
// increments InFlight and the receiver's domain decrements it on arrival
// (remoteArriveFn), so only the summed ledger balances. And the duplication
// decision — including the clone — happens BEFORE the original is sent:
// once a packet is on the port the receiving shard may mutate or recycle it
// concurrently, so the serial path's clone-after-post order would race.
func (l *Link) deliverCross(p *Packet, delay sim.Duration) {
	acct := &l.dom.acct
	if l.down {
		l.impairStats.Blackholed++
		acct.Dropped++
		l.dom.releasePacket(p)
		return
	}
	if imp := l.impair; imp != nil {
		if imp.Loss > 0 && imp.rng.Float64() < imp.Loss {
			l.impairStats.WireLost++
			acct.Dropped++
			l.dom.releasePacket(p)
			return
		}
		if imp.Reorder > 0 && imp.rng.Float64() < imp.Reorder {
			extra := 1 + imp.rng.Int63n(int64(imp.ReorderMax))
			l.impairStats.Reordered++
			arrival := l.eng.Now() + delay + sim.Duration(extra)
			cp := l.cloneForDup(p)
			acct.InFlight++
			l.xport.Send(arrival, l.remoteArriveFn, p)
			if cp != nil {
				l.sendDupCross(cp, delay)
			}
			return
		}
	}
	arrival := l.eng.Now() + delay
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery
	}
	l.lastDelivery = arrival
	cp := l.cloneForDup(p)
	acct.InFlight++
	l.xport.Send(arrival, l.remoteArriveFn, p)
	if cp != nil {
		l.sendDupCross(cp, delay)
	}
}

// cloneForDup draws the duplication decision and returns the wire echo to
// send, or nil. Split from the send so deliverCross can clone before the
// original leaves this shard.
func (l *Link) cloneForDup(p *Packet) *Packet {
	imp := l.impair
	if imp == nil || imp.Dup <= 0 || imp.rng.Float64() >= imp.Dup {
		return nil
	}
	return l.dom.clonePacket(p)
}

// sendDupCross ships a wire duplicate across the boundary one transmission
// time after the original, mirroring maybeDup's arrival arithmetic.
func (l *Link) sendDupCross(cp *Packet, delay sim.Duration) {
	l.impairStats.Duplicated++
	acct := &l.dom.acct
	acct.Duplicated++
	acct.InFlight++
	arrival := l.eng.Now() + delay + l.txTime(cp.Size)
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery
	}
	l.lastDelivery = arrival
	l.xport.Send(arrival, l.remoteArriveFn, cp)
}
