package tcp

import (
	"math"

	"pert/internal/sim"
)

// Vegas implements TCP Vegas congestion avoidance (Brakmo et al., SIGCOMM
// 1994): once per RTT the sender compares its expected throughput
// (cwnd/baseRTT) with its actual throughput (cwnd/RTT) and nudges the window
// by one packet to keep between Alpha and Beta packets queued in the network.
// Slow start doubles every other RTT and exits when the queue estimate
// crosses Gamma. Loss response is the standard halving machinery of the Conn.
type Vegas struct {
	Alpha float64 // lower bound on estimated queued packets (default 1)
	Beta  float64 // upper bound (default 3)
	Gamma float64 // slow-start exit threshold (default 1)

	epochEnd  int64
	rttSum    sim.Duration
	rttCount  int
	slowStart bool
	growEpoch bool // slow start doubles every other RTT
}

// NewVegas returns a Vegas controller with the canonical alpha=1, beta=3,
// gamma=1 parameters.
func NewVegas() *Vegas {
	return &Vegas{Alpha: 1, Beta: 3, Gamma: 1}
}

// Init implements CongestionControl: everything but the parameters starts
// over.
func (v *Vegas) Init(*Conn) {
	*v = Vegas{Alpha: v.Alpha, Beta: v.Beta, Gamma: v.Gamma, slowStart: true}
}

// OnAck implements CongestionControl.
func (v *Vegas) OnAck(c *Conn, newlyAcked int, rtt sim.Duration) {
	if rtt > 0 {
		v.rttSum += rtt
		v.rttCount++
	}
	if newlyAcked <= 0 || c.InRecovery() {
		return
	}
	// Slow start grows per ACK on alternating RTTs (cwnd doubles every
	// other round trip, Vegas's cautious version of Reno slow start). This
	// includes the epoch-boundary ACK so that tiny windows, where every
	// ACK is a boundary, still grow.
	if v.slowStart && v.growEpoch {
		c.SetCwnd(c.Cwnd() + float64(newlyAcked))
	}
	if c.SndUna() < v.epochEnd {
		return
	}

	// One epoch (~one RTT) completed: run the Vegas estimator.
	diff, ok := v.diff(c)
	v.epochEnd = c.SndMax()
	v.rttSum, v.rttCount = 0, 0
	v.growEpoch = !v.growEpoch
	if !ok {
		return
	}

	if v.slowStart {
		if diff > v.Gamma {
			v.slowStart = false
			// Back off the overshoot before entering avoidance.
			c.SetCwnd(math.Max(2, c.Cwnd()*7/8))
			c.SetSsthresh(c.Cwnd())
		}
		return
	}
	switch {
	case diff < v.Alpha:
		c.SetCwnd(c.Cwnd() + 1)
	case diff > v.Beta:
		c.SetCwnd(c.Cwnd() - 1)
	}
}

// diff estimates the number of packets this flow keeps queued at the
// bottleneck: cwnd * (RTT - baseRTT) / RTT, using the average RTT observed
// over the ending epoch.
func (v *Vegas) diff(c *Conn) (float64, bool) {
	if v.rttCount == 0 || !c.RTT().HasSample() {
		return 0, false
	}
	avgRTT := float64(v.rttSum) / float64(v.rttCount)
	base := float64(c.RTT().Min)
	if base <= 0 || avgRTT <= 0 {
		return 0, false
	}
	return c.Cwnd() * (avgRTT - base) / avgRTT, true
}

// OnDupAckLoss implements CongestionControl. Brakmo's Vegas reduces less
// aggressively than Reno on fast retransmit (the loss was likely found
// early); ns-2 uses a 3/4 reduction.
func (v *Vegas) OnDupAckLoss(c *Conn) {
	v.slowStart = false
	ss := math.Max(2, c.Cwnd()*3/4)
	c.SetSsthresh(ss)
	c.SetCwnd(ss)
}

// OnRTO implements CongestionControl.
func (v *Vegas) OnRTO(c *Conn) {
	v.slowStart = true
	v.growEpoch = false
	c.SetSsthresh(math.Max(2, c.Cwnd()/2))
	c.SetCwnd(1)
}

// OnECNEcho implements CongestionControl (Vegas is normally run without ECN;
// behave like Reno if it is enabled).
func (v *Vegas) OnECNEcho(c *Conn) {
	ss := math.Max(2, c.Cwnd()/2)
	c.SetSsthresh(ss)
	c.SetCwnd(ss)
}
