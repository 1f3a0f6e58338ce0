// Package core implements the paper's primary contribution: PERT
// (Probabilistic Early Response TCP). It contains the end-host congestion
// prediction signal (the heavily smoothed per-ACK RTT estimate srtt_0.99),
// the gentle-RED-like probabilistic response curve (Section 3, Figure 5), the
// once-per-RTT early-response policy with a 35% multiplicative decrease
// (equation 1), and the PERT/PI variant that replaces the RED curve with a
// discretized proportional-integral controller on the estimated queueing
// delay (Section 6). The package is transport-agnostic: internal/tcp adapts
// it onto a concrete TCP sender.
package core

import "pert/internal/sim"

// EWMA is an exponentially weighted moving average with history weight W:
// v <- W*v + (1-W)*x. The paper's congestion predictor uses W = 0.99, a much
// heavier smoothing than the 7/8 TCP uses for RTO, which is what lets the
// signal track the bottleneck's average queue rather than per-packet noise.
type EWMA struct {
	W    float64
	v    float64
	init bool
}

// Update folds in one observation and returns the new average.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.init = true
		e.v = x
	} else {
		e.v = e.W*e.v + (1-e.W)*x
	}
	return e.v
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.v }

// Initialized reports whether at least one sample has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Signal is the PERT congestion predictor: srtt_0.99 over per-ACK
// instantaneous RTT samples, plus the running minimum RTT used as the
// propagation-delay estimate P. The estimated queueing delay is
// srtt_0.99 - P.
type Signal struct {
	srtt EWMA
	min  sim.Duration
}

// DefaultHistoryWeight is the paper's smoothing weight for srtt_0.99.
const DefaultHistoryWeight = 0.99

// NewSignal returns a predictor with history weight w (use
// DefaultHistoryWeight for the paper's signal).
func NewSignal(w float64) *Signal {
	s := makeSignal(w)
	return &s
}

// makeSignal is NewSignal by value, for the responders that hold their
// signal inline.
func makeSignal(w float64) Signal {
	if w <= 0 || w >= 1 {
		panic("core: EWMA history weight must be in (0,1)")
	}
	return Signal{srtt: EWMA{W: w}, min: sim.MaxTime}
}

// Observe folds in one instantaneous RTT sample.
func (s *Signal) Observe(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if rtt < s.min {
		s.min = rtt
	}
	s.srtt.Update(float64(rtt))
}

// SRTT returns the smoothed RTT signal.
func (s *Signal) SRTT() sim.Duration { return sim.Duration(s.srtt.Value()) }

// PropDelay returns the propagation-delay estimate P (minimum observed RTT).
// Before any observation it returns 0.
func (s *Signal) PropDelay() sim.Duration {
	if s.min == sim.MaxTime {
		return 0
	}
	return s.min
}

// QueueingDelay returns the estimated queueing delay, max(0, srtt - P).
func (s *Signal) QueueingDelay() sim.Duration {
	if !s.srtt.Initialized() {
		return 0
	}
	q := s.SRTT() - s.PropDelay()
	if q < 0 {
		return 0
	}
	return q
}

// Ready reports whether the signal has seen at least one sample.
func (s *Signal) Ready() bool { return s.srtt.Initialized() }
