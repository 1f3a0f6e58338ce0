// Package predictors implements the end-host congestion predictors surveyed
// in Section 2 of the paper (CARD, TRI-S, DUAL, Vegas, CIM, instantaneous
// RTT, window moving average, EWMA variants), the A/B/C congestion state
// machine of Figure 1, and the transition-counting evaluation that yields the
// prediction efficiency, false-positive and false-negative rates of Figures
// 2-4.
package predictors

import (
	"pert/internal/core"
	"pert/internal/sim"
)

// Sample is one per-ACK observation of the tagged flow: the instantaneous
// RTT, the sender's congestion window, and the bottleneck queue occupancy
// (normalized to its capacity) at the sampling instant. QueueFrac is ground
// truth used only for evaluation (Figure 4), never by predictors.
type Sample struct {
	T         sim.Time
	RTT       sim.Duration
	Cwnd      float64
	QueueFrac float64
}

// Predictor consumes the tagged flow's RTT sample stream and maintains a
// binary congestion state: false = state A (low delay), true = state B (high
// delay). Implementations must be deterministic functions of the sample
// stream.
type Predictor interface {
	Name() string
	// Observe folds in one per-ACK sample and returns the predictor's
	// current state (true = congestion predicted).
	Observe(s Sample) bool
}

// perRTT gates a predictor's sampling to once per round-trip time, as CARD,
// TRI-S, DUAL, Vegas and CIM all do. Between accepted samples the wrapped
// state is held.
type perRTT struct {
	last  sim.Time
	state bool
}

// accept reports whether this sample begins a new RTT epoch.
func (g *perRTT) accept(s Sample) bool {
	if g.last != 0 && s.T-g.last < s.RTT {
		return false
	}
	g.last = s.T
	return true
}

// Threshold predicts congestion when the instantaneous RTT exceeds a fixed
// absolute threshold. With per-packet samples this is the "instantaneous
// RTT" predictor of Section 2.4; Figure 2 uses it with a 65 ms threshold.
type Threshold struct {
	Thresh sim.Duration
	name   string
}

// NewThreshold builds the fixed-threshold predictor.
func NewThreshold(thresh sim.Duration) *Threshold {
	return &Threshold{Thresh: thresh, name: "inst-rtt"}
}

// Name implements Predictor.
func (p *Threshold) Name() string { return p.name }

// Observe implements Predictor.
func (p *Threshold) Observe(s Sample) bool { return s.RTT > p.Thresh }

// RelativeThreshold predicts congestion when a smoothed RTT signal exceeds
// the flow's minimum observed RTT by a fixed queueing-delay margin. A nil
// smoother gives the instantaneous variant. This is the family Section 2.4
// sweeps: instantaneous, windowed moving average, EWMA(7/8) and EWMA(0.99).
type RelativeThreshold struct {
	Margin   sim.Duration
	smoother Smoother
	min      sim.Duration
	name     string
}

// Smoother filters the RTT sample stream.
type Smoother interface {
	Update(rtt sim.Duration) sim.Duration
}

// NewRelativeThreshold builds the predictor; smoother may be nil for the
// instantaneous signal.
func NewRelativeThreshold(name string, margin sim.Duration, smoother Smoother) *RelativeThreshold {
	return &RelativeThreshold{Margin: margin, smoother: smoother, min: sim.MaxTime, name: name}
}

// Name implements Predictor.
func (p *RelativeThreshold) Name() string { return p.name }

// Observe implements Predictor.
func (p *RelativeThreshold) Observe(s Sample) bool {
	if s.RTT < p.min {
		p.min = s.RTT
	}
	v := s.RTT
	if p.smoother != nil {
		v = p.smoother.Update(s.RTT)
	}
	return v > p.min+p.Margin
}

// EWMASmoother is PERT's own srtt filter, core.EWMA, over RTT samples, with
// history weight W (7/8 for TCP's RTO filter, 0.99 for the paper's
// srtt_0.99).
type EWMASmoother struct{ core.EWMA }

// Update implements Smoother.
func (e *EWMASmoother) Update(rtt sim.Duration) sim.Duration {
	return sim.Duration(e.EWMA.Update(float64(rtt)))
}

// WindowSmoother is a sliding-window moving average over the last N samples
// (the paper uses N = 750, the bottleneck buffer size, as the oracle
// smoother).
type WindowSmoother struct {
	N    int
	buf  []sim.Duration
	head int
	sum  sim.Duration
}

// NewWindowSmoother builds an N-sample moving average.
func NewWindowSmoother(n int) *WindowSmoother {
	if n <= 0 {
		panic("predictors: window size must be positive")
	}
	return &WindowSmoother{N: n}
}

// Update implements Smoother.
func (w *WindowSmoother) Update(rtt sim.Duration) sim.Duration {
	if len(w.buf) < w.N {
		w.buf = append(w.buf, rtt)
		w.sum += rtt
	} else {
		w.sum += rtt - w.buf[w.head]
		w.buf[w.head] = rtt
		w.head = (w.head + 1) % w.N
	}
	return w.sum / sim.Duration(len(w.buf))
}

// CARD is Jain's 1989 delay-gradient predictor: once per RTT, the normalized
// delay gradient (RTT_i - RTT_{i-1})/(RTT_i + RTT_{i-1}) is computed; a
// positive gradient predicts congestion.
type CARD struct {
	gate perRTT
	prev sim.Duration
}

// Name implements Predictor.
func (*CARD) Name() string { return "card" }

// Observe implements Predictor.
func (c *CARD) Observe(s Sample) bool {
	if !c.gate.accept(s) {
		return c.gate.state
	}
	if c.prev == 0 {
		c.prev = s.RTT
		return false
	}
	ndg := float64(s.RTT-c.prev) / float64(s.RTT+c.prev)
	c.prev = s.RTT
	c.gate.state = ndg > 0
	return c.gate.state
}

// TRIS is the Tri-S scheme of Wang & Crowcroft 1991: once per RTT, the
// normalized throughput gradient is computed from the achieved throughput
// cwnd/RTT; a vanishing or negative gradient while the window grows predicts
// that the knee has been passed.
type TRIS struct {
	gate     perRTT
	prevTput float64
	prevWnd  float64
}

// Name implements Predictor.
func (*TRIS) Name() string { return "tri-s" }

// Observe implements Predictor.
func (t *TRIS) Observe(s Sample) bool {
	if !t.gate.accept(s) {
		return t.gate.state
	}
	tput := s.Cwnd / s.RTT.Seconds()
	defer func() { t.prevTput, t.prevWnd = tput, s.Cwnd }()
	if t.prevTput == 0 {
		return false
	}
	dw := s.Cwnd - t.prevWnd
	if dw <= 0 {
		// Window not probing upward: keep the previous state.
		return t.gate.state
	}
	// Normalized throughput gradient per unit of window increase.
	ntg := (tput - t.prevTput) / t.prevTput / dw
	t.gate.state = ntg < 0.01
	return t.gate.state
}

// DUAL is Wang & Crowcroft 1992: congestion is predicted when the RTT
// exceeds the midpoint of the minimum and maximum observed RTTs.
type DUAL struct {
	gate     perRTT
	min, max sim.Duration
}

// Name implements Predictor.
func (*DUAL) Name() string { return "dual" }

// Observe implements Predictor.
func (d *DUAL) Observe(s Sample) bool {
	if d.min == 0 || s.RTT < d.min {
		d.min = s.RTT
	}
	if s.RTT > d.max {
		d.max = s.RTT
	}
	if !d.gate.accept(s) {
		return d.gate.state
	}
	d.gate.state = s.RTT > (d.min+d.max)/2
	return d.gate.state
}

// VegasPredictor applies Vegas's expected-vs-actual throughput comparison as
// a pure congestion detector: diff = cwnd*(RTT-baseRTT)/RTT packets queued;
// congestion is predicted when diff exceeds Beta.
type VegasPredictor struct {
	Beta float64
	gate perRTT
	base sim.Duration
}

// NewVegasPredictor builds the predictor with the canonical beta = 3.
func NewVegasPredictor() *VegasPredictor { return &VegasPredictor{Beta: 3} }

// Name implements Predictor.
func (*VegasPredictor) Name() string { return "vegas" }

// Observe implements Predictor.
func (v *VegasPredictor) Observe(s Sample) bool {
	if v.base == 0 || s.RTT < v.base {
		v.base = s.RTT
	}
	if !v.gate.accept(s) {
		return v.gate.state
	}
	diff := s.Cwnd * float64(s.RTT-v.base) / float64(s.RTT)
	v.gate.state = diff > v.Beta
	return v.gate.state
}

// CIM is Martin, Nilsson & Rhee 2003: congestion is inferred when a short
// moving average of RTT samples exceeds a long moving average.
type CIM struct {
	Short, Long int
	gate        perRTT
	short, long *WindowSmoother
}

// NewCIM builds CIM with an 8-sample short window over a 100-sample long
// window.
func NewCIM() *CIM {
	return &CIM{Short: 8, Long: 100, short: NewWindowSmoother(8), long: NewWindowSmoother(100)}
}

// Name implements Predictor.
func (*CIM) Name() string { return "cim" }

// Observe implements Predictor.
func (c *CIM) Observe(s Sample) bool {
	if !c.gate.accept(s) {
		return c.gate.state
	}
	sa := c.short.Update(s.RTT)
	la := c.long.Update(s.RTT)
	c.gate.state = sa > la
	return c.gate.state
}

// Suite returns the Figure 3 predictor set: the five published schemes plus
// the paper's per-ACK signal family. margin is the queueing-delay threshold
// for the relative family (the paper's study effectively uses 5 ms over a
// 60 ms path), and window is the buffer-sized moving average length.
func Suite(margin sim.Duration, window int) []Predictor {
	return []Predictor{
		&CARD{},
		&TRIS{},
		&DUAL{},
		NewVegasPredictor(),
		NewCIM(),
		NewSyncTrend(),
		NewBFA(),
		NewRelativeThreshold("inst-rtt", margin, nil),
		NewRelativeThreshold("movavg-buf", margin, NewWindowSmoother(window)),
		NewRelativeThreshold("ewma-0.875", margin, &EWMASmoother{EWMA: core.EWMA{W: 0.875}}),
		NewRelativeThreshold("ewma-0.99", margin, &EWMASmoother{EWMA: core.EWMA{W: 0.99}}),
	}
}
