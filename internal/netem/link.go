package netem

import (
	"fmt"
	"sort"

	"pert/internal/sim"
)

// LinkStats are cumulative counters for one unidirectional link. Drops and
// Marks are attributed to the link's queue discipline; Arrivals counts every
// packet offered to the queue.
type LinkStats struct {
	Arrivals  uint64
	Drops     uint64
	Marks     uint64
	TxPackets uint64
	TxBytes   uint64
	BusyTime  sim.Duration
}

// DropRate returns the fraction of offered packets that were dropped.
func (s LinkStats) DropRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Drops) / float64(s.Arrivals)
}

// Link is a unidirectional link with an output queue, a transmission rate,
// and a propagation delay. It models a single server: one packet transmits at
// a time; propagation overlaps with the next transmission.
type Link struct {
	From, To *Node
	Capacity float64 // bits per second; change mid-run via SetCapacity
	Delay    sim.Duration
	Queue    Discipline

	// JitterMax adds a uniform random extra propagation delay in
	// [0, JitterMax) per packet, modeling non-queueing delay variation
	// (wireless links, cross-traffic on unmodeled hops) — the noise source
	// the Section 2 robustness concerns are about. Delivery order is
	// preserved (a jittered packet never overtakes its predecessor).
	JitterMax sim.Duration

	lastDelivery sim.Time

	// OnDrop, if set, observes every packet the queue rejects. Used by the
	// Section 2 study to record queue-level loss events.
	OnDrop func(p *Packet, now sim.Time)
	// OnEnqueue, if set, observes every packet the queue accepts (called
	// after the enqueue, so Queue.Len includes the packet).
	OnEnqueue func(p *Packet, now sim.Time)
	// OnDepart, if set, observes every packet as it finishes transmission.
	OnDepart func(p *Packet, now sim.Time)

	Stats LinkStats

	eng  *sim.Engine
	dom  *domain // shard domain owning this link (its From node's domain)
	busy bool

	// Boundary-link state (domain.go): when the link's endpoints live in
	// different shard domains, deliveries cross through xport instead of
	// being posted on the local engine, and arrive on the receiving shard
	// via remoteArriveFn. Nil for intra-domain links — the serial path.
	xport          *sim.Port
	remoteArriveFn func(any)

	// Transmit-loop state. The link is a single server, so one persistent
	// timer plus a stashed in-flight packet replaces the per-transmission
	// closure the old serve loop allocated: a saturated link schedules its
	// completion and the packet's arrival with zero allocations per packet.
	txDone     *sim.Timer   // fires completeTx for the in-flight packet
	inFlight   *Packet      // packet currently occupying the server
	inFlightTx sim.Duration // its serialization delay
	arriveFn   func(any)    // bound arrival thunk reused by every delivery

	// arrivals carries the link's floor-respecting deliveries (deliver's
	// normal path and maybeDup): lastDelivery makes their times monotone, so
	// however many packets are propagating the engine's heap holds one key
	// for this link. Reordered packets bypass it through Engine.Post.
	arrivals sim.Lane

	// capHist records capacity changes (SetCapacity) as breakpoints of the
	// running integral of capacity over time, so utilization windows that
	// span a LinkSchedule rate change divide by the true deliverable bits
	// rather than the instantaneous rate.
	capHist []capPoint

	// Fault-injection state (impair.go): wire loss/dup/reorder, and the
	// up/down flag driven by LinkSchedule.
	impair      *Impairment
	impairStats ImpairStats
	down        bool

	// Hybrid substrate state (fluidsource.go): a modeled background
	// aggregate sharing this link's queue. Nil on pure packet links —
	// every hook below is a nil check on that path.
	fluid *FluidSource

	// Schedule state (impair.go): the applied LinkSchedule plus one armed
	// timer per change, kept so Partition can migrate the changes onto the
	// link's owning domain's engine (and reject Delay changes on boundary
	// links, whose lookahead is fixed at Connect time).
	sched       LinkSchedule
	schedTimers []*sim.Timer
}

// capPoint is one breakpoint of the capacity integral: from at onward the
// link runs at rate bits/s, having accumulated bits of capacity over [0, at].
type capPoint struct {
	at   sim.Time
	bits float64
	rate float64
}

// Send offers a packet to the link's queue and starts the transmitter if it
// is idle. A down link blackholes the packet instead (see SetUp).
func (l *Link) Send(p *Packet) {
	now := l.eng.Now()
	l.Stats.Arrivals++
	acct := &l.dom.acct
	if l.down {
		l.impairStats.Blackholed++
		l.Stats.Drops++
		acct.Dropped++
		if l.OnDrop != nil {
			l.OnDrop(p, now)
		}
		l.dom.releasePacket(p)
		return
	}
	if l.fluid != nil && !l.fluid.admit() {
		// Shared-queue overflow: the modeled backlog plus the packet
		// queue has filled the buffer, so the packet is lost exactly as
		// a queue reject would lose it.
		l.Stats.Drops++
		acct.Dropped++
		if l.OnDrop != nil {
			l.OnDrop(p, now)
		}
		l.dom.releasePacket(p)
		return
	}
	ce := p.CE
	if !l.Queue.Enqueue(p, now) {
		l.Stats.Drops++
		acct.Dropped++
		if l.OnDrop != nil {
			l.OnDrop(p, now)
		}
		l.dom.releasePacket(p)
		return
	}
	// Disciplines mark only at enqueue time (the Discipline contract), so
	// comparing CE across the call counts every mark.
	if p.CE && !ce {
		l.Stats.Marks++
	}
	acct.Queued++
	if l.OnEnqueue != nil {
		l.OnEnqueue(p, now)
	}
	if !l.busy {
		l.serve()
	}
}

// serve dequeues the next packet and schedules its transmission completion
// on the link's persistent timer.
func (l *Link) serve() {
	p := l.Queue.Dequeue(l.eng.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	acct := &l.dom.acct
	acct.Queued--
	acct.Transmitting++
	tx := l.txTime(p.Size)
	l.inFlight, l.inFlightTx = p, tx
	l.txDone.ResetAfter(tx)
}

// completeTx finishes the in-flight packet's transmission and serves the
// next one. It is the hoisted body of the per-packet closure the transmit
// loop used to allocate.
func (l *Link) completeTx() {
	p, tx := l.inFlight, l.inFlightTx
	l.inFlight = nil
	l.Stats.TxPackets++
	l.Stats.TxBytes += uint64(p.Size)
	l.Stats.BusyTime += tx
	l.dom.acct.Transmitting--
	if l.OnDepart != nil {
		l.OnDepart(p, l.eng.Now())
	}
	delay := l.Delay
	if l.fluid != nil {
		// Real packets wait behind the modeled backlog: the fluid share
		// of the queueing delay rides on the propagation delay (the
		// FIFO floor in deliver preserves ordering as it shrinks).
		delay += l.fluid.extra
	}
	if l.JitterMax > 0 {
		delay += sim.Duration(l.eng.Rand().Int63n(int64(l.JitterMax)))
	}
	if l.xport != nil {
		l.deliverCross(p, delay)
	} else {
		l.deliver(p, delay)
	}
	l.serve()
}

// txTime returns the serialization delay of size bytes at the link rate.
func (l *Link) txTime(size int) sim.Duration {
	return sim.Seconds(float64(size) * 8 / l.Capacity)
}

// SetCapacity changes the link rate at the current simulation time,
// recording a breakpoint so utilization windows spanning the change stay
// exact. Mid-run capacity changes must go through here (LinkSchedule does);
// writing the Capacity field directly would silently skew Utilization over
// any window containing the change.
func (l *Link) SetCapacity(c float64) {
	if c <= 0 {
		panic("netem: non-positive link capacity")
	}
	now := l.eng.Now()
	if len(l.capHist) == 0 {
		// Seed the history with the construction-time rate so the
		// integral before the first change uses the original capacity.
		l.capHist = append(l.capHist, capPoint{at: 0, bits: 0, rate: l.Capacity})
	}
	l.capHist = append(l.capHist, capPoint{at: now, bits: l.capacityBits(now), rate: c})
	l.Capacity = c
}

// capacityBits returns the integral of link capacity over [0, t] in bits.
func (l *Link) capacityBits(t sim.Time) float64 {
	h := l.capHist
	if len(h) == 0 {
		return l.Capacity * t.Seconds()
	}
	i := sort.Search(len(h), func(i int) bool { return h[i].at > t }) - 1
	if i < 0 {
		i = 0
	}
	return h[i].bits + h[i].rate*(t-h[i].at).Seconds()
}

// UtilizationOver returns the fraction of the window [from, to] the link
// spent transmitting, given a snapshot of TxBytes taken at the start of the
// window. The denominator integrates the link rate over the window, so a
// SetCapacity change (e.g. an ext-flap LinkSchedule halving the rate
// mid-window) is weighted by how long each rate was in effect.
func (l *Link) UtilizationOver(txBytesAtStart uint64, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	capBits := l.capacityBits(to) - l.capacityBits(from)
	if capBits <= 0 {
		return 0
	}
	return float64(l.Stats.TxBytes-txBytesAtStart) * 8 / capBits
}

// Utilization returns the fraction of the most recent window of the given
// length the link spent transmitting, computed from a snapshot of TxBytes
// taken at the start of the window. The window ends at the current
// simulation time; links without an engine (hand-constructed in tests) are
// treated as constant-capacity.
func (l *Link) Utilization(txBytesAtStart uint64, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	if l.eng == nil || len(l.capHist) == 0 {
		bits := float64(l.Stats.TxBytes-txBytesAtStart) * 8
		return bits / (l.Capacity * window.Seconds())
	}
	now := l.eng.Now()
	return l.UtilizationOver(txBytesAtStart, now-window, now)
}

func (l *Link) String() string {
	return fmt.Sprintf("link %d->%d %.0fbps %v", l.From.ID, l.To.ID, l.Capacity, l.Delay)
}
