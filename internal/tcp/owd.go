package tcp

import (
	"pert/internal/netem"
	"pert/internal/sim"
)

// One-way-delay support (the paper's Section 7): round-trip time conflates
// forward and reverse queueing, so reverse-path congestion can trigger PERT's
// early response even when the forward path is clear. The paper notes PERT
// "can be used with one-way delays to achieve similar benefits", citing
// TCP-LP and Sync-TCP for OWD estimation techniques.
//
// In the simulator both endpoints share the virtual clock, so the receiver
// measures the forward one-way delay exactly as OWD = arrival - SentAt and
// echoes it on the ACK; a real implementation would substitute the
// clock-offset-tolerant estimators of [20]/[31], which track *changes* in
// OWD and therefore need no synchronization for PERT's purposes (the signal
// is OWD minus its observed minimum).

// owdSink wraps the standard Sink to stamp the measured forward one-way
// delay onto each data segment before the Sink builds the ACK (which echoes
// the packet's OWD field back to the sender).
type owdSink struct {
	*Sink
}

// Receive implements netem.Handler: measure, then delegate.
func (s owdSink) Receive(p *netem.Packet, now sim.Time) {
	if !p.IsAck {
		p.OWD = now - p.SentAt
	}
	s.Sink.Receive(p, now)
}

// NewOWDFlow wires a sender and an OWD-measuring sink: ACKs carry the
// forward one-way delay of the segment they acknowledge, and the sender's
// OnOWDSample (if set in cfg) observes it. Combine with a PERT controller
// whose responder consumes OWD samples (see PERTOWD).
func NewOWDFlow(net *netem.Network, src, dst *netem.Node, flow int, cc CongestionControl, cfg Config) *Flow {
	c := NewConn(net, src, dst.ID, flow, cc, cfg)
	s := NewSink(net, dst, flow, src.ID)
	dst.AttachFlow(flow, owdSink{s})
	return &Flow{Conn: c, Sink: s}
}
