package tcp

import (
	"math"

	"pert/internal/sim"
)

// Classic delay-based congestion-avoidance schemes from the paper's Section
// 2 lineage, implemented as full controllers so they can be compared head to
// head with PERT and Vegas (the ext-delaycc experiment). Both predate Vegas:
// they keep standard slow start and loss handling and modify only congestion
// avoidance.

// DUAL implements Wang & Crowcroft 1992: every Interval round trips, if the
// latest RTT exceeds the midpoint of the minimum and maximum observed RTTs
// (the queue is more than ~half full), the window is reduced multiplicatively
// by Beta; otherwise it grows by one segment per RTT.
type DUAL struct {
	Beta     float64 // multiplicative decrease (paper: 7/8)
	Interval int     // epochs between delay checks (paper: every other RTT)

	epochEnd int64
	epochs   int
	min, max sim.Duration
	latest   sim.Duration
}

// NewDUAL returns DUAL with the published parameters.
func NewDUAL() *DUAL { return &DUAL{Beta: 7.0 / 8, Interval: 2} }

// Init implements CongestionControl: everything but the parameters starts
// over.
func (d *DUAL) Init(*Conn) { *d = DUAL{Beta: d.Beta, Interval: d.Interval} }

// OnAck implements CongestionControl.
func (d *DUAL) OnAck(c *Conn, newlyAcked int, rtt sim.Duration) {
	if rtt > 0 {
		d.latest = rtt
		if d.min == 0 || rtt < d.min {
			d.min = rtt
		}
		if rtt > d.max {
			d.max = rtt
		}
	}
	if newlyAcked <= 0 || c.InRecovery() {
		return
	}
	if c.Cwnd() < c.Ssthresh() {
		c.SetCwnd(c.Cwnd() + float64(newlyAcked))
		return
	}
	c.SetCwnd(c.Cwnd() + float64(newlyAcked)/c.Cwnd())
	if c.SndUna() < d.epochEnd {
		return
	}
	d.epochEnd = c.SndMax()
	d.epochs++
	if d.epochs%d.Interval != 0 || d.min == 0 {
		return
	}
	if d.latest > (d.min+d.max)/2 {
		c.SetCwnd(math.Max(2, c.Cwnd()*d.Beta))
	}
}

// OnDupAckLoss implements CongestionControl (standard halving).
func (d *DUAL) OnDupAckLoss(c *Conn) {
	ss := math.Max(2, c.Cwnd()/2)
	c.SetSsthresh(ss)
	c.SetCwnd(ss)
}

// OnRTO implements CongestionControl.
func (d *DUAL) OnRTO(c *Conn) {
	c.SetSsthresh(math.Max(2, c.Cwnd()/2))
	c.SetCwnd(1)
	// A timeout invalidates the max estimate (the path changed).
	d.max = d.latest
}

// OnECNEcho implements CongestionControl.
func (d *DUAL) OnECNEcho(c *Conn) { d.OnDupAckLoss(c) }

// CARD implements Jain 1989 (Congestion Avoidance using Round-trip Delay):
// every other window's worth of ACKs, the normalized delay gradient
// (RTT-RTT')/(RTT+RTT') decides the direction: positive gradient shrinks the
// window by 1/8, otherwise it grows by one segment. The scheme oscillates
// around the knee of the delay-throughput curve.
type CARD struct {
	epochEnd int64
	epochs   int
	prevRTT  sim.Duration
	sumRTT   sim.Duration
	nRTT     int
}

// NewCARD returns the CARD controller.
func NewCARD() *CARD { return &CARD{} }

// Init implements CongestionControl: CARD has no parameters, so all of it
// starts over.
func (cd *CARD) Init(*Conn) { *cd = CARD{} }

// OnAck implements CongestionControl.
func (cd *CARD) OnAck(c *Conn, newlyAcked int, rtt sim.Duration) {
	if rtt > 0 {
		cd.sumRTT += rtt
		cd.nRTT++
	}
	if newlyAcked <= 0 || c.InRecovery() {
		return
	}
	if c.Cwnd() < c.Ssthresh() {
		c.SetCwnd(c.Cwnd() + float64(newlyAcked))
		return
	}
	if c.SndUna() < cd.epochEnd {
		return
	}
	cd.epochEnd = c.SndMax()
	cd.epochs++
	if cd.nRTT == 0 {
		return
	}
	avg := cd.sumRTT / sim.Duration(cd.nRTT)
	cd.sumRTT, cd.nRTT = 0, 0
	if cd.epochs%2 != 0 {
		// Adjust only every other epoch, letting the previous change take
		// effect (Jain's "wait one RTT" rule).
		cd.prevRTT = avg
		return
	}
	if cd.prevRTT == 0 {
		cd.prevRTT = avg
		return
	}
	ndg := float64(avg-cd.prevRTT) / float64(avg+cd.prevRTT)
	cd.prevRTT = avg
	if ndg > 0 {
		c.SetCwnd(math.Max(2, c.Cwnd()*7.0/8))
	} else {
		c.SetCwnd(c.Cwnd() + 1)
	}
}

// OnDupAckLoss implements CongestionControl.
func (cd *CARD) OnDupAckLoss(c *Conn) {
	ss := math.Max(2, c.Cwnd()/2)
	c.SetSsthresh(ss)
	c.SetCwnd(ss)
}

// OnRTO implements CongestionControl.
func (cd *CARD) OnRTO(c *Conn) {
	c.SetSsthresh(math.Max(2, c.Cwnd()/2))
	c.SetCwnd(1)
}

// OnECNEcho implements CongestionControl.
func (cd *CARD) OnECNEcho(c *Conn) { cd.OnDupAckLoss(c) }
