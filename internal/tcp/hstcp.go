package tcp

import (
	"math"

	"pert/internal/sim"
)

// HSTCP implements HighSpeed TCP (RFC 3649): above a window of LowWindow
// segments the AIMD parameters scale with the window so large-BDP paths can
// be filled without absurd loss-rate requirements. It is the "aggressive
// probing mechanism for high-speed networks" of the paper's footnote 1 —
// still loss-based, so PERT's early response composes with it (use
// PERT{Base: NewHSTCP()}).
type HSTCP struct {
	LowWindow  float64 // below this, behave exactly like Reno (default 38)
	HighWindow float64 // calibration point (default 83000)
	HighP      float64 // loss rate at HighWindow (default 1e-7)
	HighDecr   float64 // decrease factor at HighWindow (default 0.1)
}

// NewHSTCP returns HighSpeed TCP with the RFC 3649 constants.
func NewHSTCP() *HSTCP {
	return &HSTCP{LowWindow: 38, HighWindow: 83000, HighP: 1e-7, HighDecr: 0.1}
}

// b returns the multiplicative-decrease fraction b(w) of RFC 3649 (0.5 at
// LowWindow shading to HighDecr at HighWindow, log-linear in w).
func (h *HSTCP) b(w float64) float64 {
	if w <= h.LowWindow {
		return 0.5
	}
	if w >= h.HighWindow {
		return h.HighDecr
	}
	frac := (math.Log(w) - math.Log(h.LowWindow)) / (math.Log(h.HighWindow) - math.Log(h.LowWindow))
	return (h.HighDecr-0.5)*frac + 0.5
}

// a returns the per-RTT additive increase a(w) of RFC 3649:
//
//	a(w) = w^2 * p(w) * 2 * b(w) / (2 - b(w))
//
// with the deterministic response function p(w) = 0.078 / w^1.2.
func (h *HSTCP) a(w float64) float64 {
	if w <= h.LowWindow {
		return 1
	}
	p := 0.078 / math.Pow(w, 1.2)
	b := h.b(w)
	a := w * w * p * 2 * b / (2 - b)
	if a < 1 {
		a = 1
	}
	return a
}

// Init implements CongestionControl.
func (h *HSTCP) Init(*Conn) {}

// OnAck implements CongestionControl: slow start below ssthresh, then a(w)
// per RTT (a(w)/w per acked segment).
func (h *HSTCP) OnAck(c *Conn, newlyAcked int, _ sim.Duration) {
	if newlyAcked <= 0 || c.InRecovery() {
		return
	}
	w := c.Cwnd()
	if w < c.Ssthresh() {
		c.SetCwnd(w + float64(newlyAcked))
		return
	}
	c.SetCwnd(w + float64(newlyAcked)*h.a(w)/w)
}

// OnDupAckLoss implements CongestionControl: w <- (1-b(w))*w.
func (h *HSTCP) OnDupAckLoss(c *Conn) {
	w := c.Cwnd()
	nw := math.Max(2, w*(1-h.b(w)))
	c.SetSsthresh(nw)
	c.SetCwnd(nw)
}

// OnRTO implements CongestionControl.
func (h *HSTCP) OnRTO(c *Conn) {
	c.SetSsthresh(math.Max(2, c.Cwnd()/2))
	c.SetCwnd(1)
}

// OnECNEcho implements CongestionControl.
func (h *HSTCP) OnECNEcho(c *Conn) { h.OnDupAckLoss(c) }
