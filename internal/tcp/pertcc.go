package tcp

import (
	"math"

	"pert/internal/core"
	"pert/internal/netem"
	"pert/internal/sim"
)

// PERT adapts a core.Responder (RED or PI emulation) onto the TCP sender: on
// every ACK the per-packet RTT sample feeds the congestion predictor, and
// when the responder fires the window is reduced multiplicatively — the
// proactive, probabilistic early response that lets end hosts obtain
// AQM/ECN-like queue behaviour from plain DropTail bottlenecks. Packet losses
// still get the full standard SACK response.
type PERT struct {
	Responder core.Responder
	// UseOWD feeds the responder forward one-way delays (echoed on ACKs by
	// an OWD-measuring sink, see NewOWDFlow) instead of round-trip times.
	UseOWD bool
	// Build, if set and Responder is nil, constructs the responder at Init
	// time with access to the live connection (and hence the engine's
	// deterministic RNG). Used by ablation variants.
	Build func(c *Conn) core.Responder
	// Base supplies window growth and loss/ECN response; default Reno.
	// The paper's footnote 1 observes that its argument applies to any
	// loss-based probing — plugging in an aggressive high-speed base (see
	// NewHSTCP) tests exactly that.
	Base CongestionControl
}

// NewPERTRed builds the paper's standard PERT: RED emulation with srtt_0.99,
// thresholds P+5 ms / P+10 ms, pmax 0.05, gentle curve, and 35% decrease. The
// responder is created lazily in Init so it draws from the connection's
// deterministic RNG.
func NewPERTRed() *PERT { return &PERT{} }

// NewPERTLazy builds PERT whose responder is constructed per-connection at
// Init time (ablation variants that need the connection's RNG).
func NewPERTLazy(build func(c *Conn) core.Responder) *PERT {
	return &PERT{Build: build}
}

// Init implements CongestionControl.
func (p *PERT) Init(c *Conn) {
	if p.Base == nil {
		p.Base = Reno{}
	}
	p.Base.Init(c)
	if p.Responder != nil {
		return
	}
	if p.Build != nil {
		p.Responder = p.Build(c)
		return
	}
	p.Responder = core.NewREDResponder(c.Engine().Rand())
}

// Probe reports the responder's current congestion view for instrumentation:
// the perceived queueing delay in seconds and the response probability in
// effect. ok is false before Init has constructed the responder (no ACK has
// been processed yet). Pure read — probing never advances the signal, the
// rate limiter, or any RNG.
func (p *PERT) Probe() (qdelay, prob float64, ok bool) {
	r := p.Responder
	if r == nil {
		return 0, 0, false
	}
	return r.Signal().QueueingDelay().Seconds(), r.P(), true
}

// OnAck implements CongestionControl: Reno-style growth plus the PERT early
// response. With UseOWD set, the responder consumes the ACK's echoed forward
// one-way delay instead of the RTT, excluding reverse-path queueing from the
// congestion signal (Section 7).
func (p *PERT) OnAck(c *Conn, newlyAcked int, rtt sim.Duration, ack *netem.Packet) {
	if p.UseOWD && ack != nil && ack.OWD > 0 && !ack.Retrans {
		rtt = ack.OWD
	}
	if rtt > 0 {
		d := p.Responder.OnRTT(c.Now(), rtt)
		if d.Respond && !c.InRecovery() {
			c.noteEarlyResponse()
			w := math.Max(2, c.Cwnd()*(1-d.Factor))
			c.SetCwnd(w)
			c.SetSsthresh(w)
			return // no growth on the reducing ACK
		}
	}
	p.Base.OnAck(c, newlyAcked, rtt, ack)
}

// OnDupAckLoss implements CongestionControl: losses get the base's standard
// response.
func (p *PERT) OnDupAckLoss(c *Conn) { p.Base.OnDupAckLoss(c) }

// OnRTO implements CongestionControl.
func (p *PERT) OnRTO(c *Conn) { p.Base.OnRTO(c) }

// OnECNEcho implements CongestionControl (PERT normally runs over DropTail;
// the base handles ECN if it is enabled anyway).
func (p *PERT) OnECNEcho(c *Conn) { p.Base.OnECNEcho(c) }
