package tcp

import (
	"math"

	"pert/internal/sim"
)

// CongestionControl is the per-flavor policy plugged into a Conn. The Conn
// owns the mechanics (sequencing, SACK scoreboard, retransmission, timers);
// the flavor owns the window: how it grows on ACKs and how it shrinks on the
// three congestion signals (fast retransmit, retransmission timeout, ECN
// echo).
type CongestionControl interface {
	// Init is called each time a connection starts, and is the
	// controller's per-connection reset: it rebuilds every field that is not
	// a parameter, so a controller reused for a later connection (a web
	// session's next object) behaves exactly like a fresh one. A controller
	// serves one live connection at a time.
	Init(c *Conn)
	// OnAck is called for every arriving ACK. newlyAcked is the number of
	// segments the cumulative ACK point advanced (0 for duplicate ACKs);
	// rtt is the RTT sample carried by this ACK, or 0 if none (Karn).
	OnAck(c *Conn, newlyAcked int, rtt sim.Duration)
	// OnDupAckLoss is called when loss is inferred from duplicate
	// ACKs/SACK, just before fast retransmit. It must set ssthresh/cwnd.
	OnDupAckLoss(c *Conn)
	// OnRTO is called on a retransmission timeout. It must set
	// ssthresh/cwnd.
	OnRTO(c *Conn)
	// OnECNEcho is called at most once per window when the receiver echoes
	// an ECN congestion mark.
	OnECNEcho(c *Conn)
}

// Reno implements the standard NewReno/SACK window policy: slow start to
// ssthresh, then additive increase; halving on loss or ECN; window collapse
// to one segment on RTO. This is the "SACK" baseline in the paper's
// evaluation.
type Reno struct{}

// Init implements CongestionControl.
func (Reno) Init(*Conn) {}

// OnAck implements CongestionControl: slow start below ssthresh, AIMD above.
func (Reno) OnAck(c *Conn, newlyAcked int, _ sim.Duration) {
	if newlyAcked <= 0 || c.InRecovery() {
		return
	}
	if c.Cwnd() < c.Ssthresh() {
		c.SetCwnd(c.Cwnd() + float64(newlyAcked))
	} else {
		c.SetCwnd(c.Cwnd() + float64(newlyAcked)/c.Cwnd())
	}
}

// OnDupAckLoss implements CongestionControl: halve into fast recovery.
func (Reno) OnDupAckLoss(c *Conn) {
	ss := math.Max(2, c.Cwnd()/2)
	c.SetSsthresh(ss)
	c.SetCwnd(ss)
}

// OnRTO implements CongestionControl.
func (Reno) OnRTO(c *Conn) {
	c.SetSsthresh(math.Max(2, c.Cwnd()/2))
	c.SetCwnd(1)
}

// OnECNEcho implements CongestionControl: treated like a fast-retransmit
// signal (RFC 3168), without retransmission.
func (Reno) OnECNEcho(c *Conn) {
	ss := math.Max(2, c.Cwnd()/2)
	c.SetSsthresh(ss)
	c.SetCwnd(ss)
}
