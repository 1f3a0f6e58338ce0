package fluid

// Stepper is a resumable integrator for a System: where Integrate consumes a
// whole [t0, t1] window in one call, a Stepper advances one fixed RK4 step at
// a time, so the DDE can run in lockstep with a discrete-event simulation
// (the hybrid fluid/packet substrate drives one from a sim.Ticker). The
// delayed-state history is a MaxLag-bounded ring: memory is O(MaxLag/h)
// regardless of how long the integration runs, which is what makes
// indefinite co-simulation possible.
//
// The step arithmetic — stage times, stage order, the linear interpolation of
// delayed states, and the t = t0 + n*h clock — is exactly Integrate's
// (Integrate is now implemented on a Stepper), so a step-at-a-time trajectory
// is bit-identical to the batch one.
type Stepper struct {
	sys *System
	h   float64
	t0  float64
	t   float64
	n   int // completed steps

	x  []float64 // current state (after n steps)
	x0 []float64 // initial state, the constant history before t0

	// ring holds the accepted states of steps [base, base+count), oldest at
	// slot head. Capacity covers MaxLag plus interpolation slack; once full,
	// each accepted step overwrites the oldest entry in place, so a
	// long-running Stepper allocates nothing per step.
	ring  [][]float64
	head  int
	base  int
	count int

	dx1, dx2, dx3, dx4, tmp []float64

	// stageBase and dfn implement the delayed-lookup callback without a
	// per-stage closure allocation: Step sets stageBase to the stage time
	// and passes the one pre-bound dfn to F.
	stageBase float64
	dfn       func(lag float64, i int) float64
}

// NewStepper prepares a stepper for the system from state x0 at time t0 with
// fixed step h. Lags must exceed h for the stage evaluations to stay within
// history (the same constraint Integrate documents).
func NewStepper(sys *System, x0 []float64, t0, h float64) *Stepper {
	if len(x0) != sys.Dim {
		panic("fluid: initial state has wrong dimension")
	}
	if h <= 0 {
		panic("fluid: non-positive step")
	}
	histLen := int(sys.MaxLag/h) + 8
	s := &Stepper{
		sys: sys, h: h, t0: t0, t: t0,
		x:    append([]float64(nil), x0...),
		x0:   append([]float64(nil), x0...),
		ring: make([][]float64, 0, histLen),
		dx1:  make([]float64, sys.Dim),
		dx2:  make([]float64, sys.Dim),
		dx3:  make([]float64, sys.Dim),
		dx4:  make([]float64, sys.Dim),
		tmp:  make([]float64, sys.Dim),
	}
	s.dfn = func(lag float64, i int) float64 { return s.delayed(s.stageBase, lag, i) }
	s.record()
	return s
}

// record appends the current state to the history ring, evicting the oldest
// entry once the ring covers MaxLag.
func (s *Stepper) record() {
	if s.count < cap(s.ring) {
		if len(s.ring) < cap(s.ring) {
			s.ring = append(s.ring, append([]float64(nil), s.x...))
		} else {
			copy(s.ring[(s.head+s.count)%cap(s.ring)], s.x)
		}
		s.count++
		return
	}
	// Full: overwrite the oldest slot and advance the window.
	copy(s.ring[s.head], s.x)
	s.head = (s.head + 1) % cap(s.ring)
	s.base++
}

// at returns component i of the stored state of absolute step k, clamping to
// the retained window (steps older than MaxLag read the oldest entry; the
// System contract promises F never asks for them).
func (s *Stepper) at(k, i int) float64 {
	if k < s.base {
		k = s.base
	}
	last := s.base + s.count - 1
	if k > last {
		k = last
	}
	return s.ring[(s.head+k-s.base)%cap(s.ring)][i]
}

// delayed returns component i of the state at base-lag, linearly interpolated
// between stored steps and constant x0 before t0 — Integrate's exact lookup.
func (s *Stepper) delayed(base, lag float64, i int) float64 {
	when := base - lag
	if when <= s.t0 {
		return s.x0[i]
	}
	pos := (when - s.t0) / s.h
	k := int(pos)
	last := s.base + s.count - 1
	if k >= last {
		return s.at(last, i)
	}
	frac := pos - float64(k)
	return s.at(k, i)*(1-frac) + s.at(k+1, i)*frac
}

// Time returns the current integration time t0 + n*h.
func (s *Stepper) Time() float64 { return s.t }

// Steps returns the number of accepted steps taken so far.
func (s *Stepper) Steps() int { return s.n }

// State returns the current state vector. The slice is the stepper's working
// storage: read it between steps, copy it to keep it, never modify it.
func (s *Stepper) State() []float64 { return s.x }

// Step advances the system by one h using the classical fourth-order
// Runge-Kutta method and records the accepted state in the history ring.
func (s *Stepper) Step() {
	sys, h, t, x := s.sys, s.h, s.t, s.x
	s.stageBase = t
	sys.F(t, x, s.dfn, s.dx1)
	for i := range s.tmp {
		s.tmp[i] = x[i] + h/2*s.dx1[i]
	}
	s.stageBase = t + h/2
	sys.F(t+h/2, s.tmp, s.dfn, s.dx2)
	for i := range s.tmp {
		s.tmp[i] = x[i] + h/2*s.dx2[i]
	}
	sys.F(t+h/2, s.tmp, s.dfn, s.dx3)
	for i := range s.tmp {
		s.tmp[i] = x[i] + h*s.dx3[i]
	}
	s.stageBase = t + h
	sys.F(t+h, s.tmp, s.dfn, s.dx4)
	for i := range x {
		x[i] += h / 6 * (s.dx1[i] + 2*s.dx2[i] + 2*s.dx3[i] + s.dx4[i])
	}
	if sys.Clamp != nil {
		sys.Clamp(x)
	}
	s.n++
	s.t = s.t0 + float64(s.n)*h
	s.record()
}

// AdvanceTo steps until the integration time reaches t (rounded to the
// nearest whole step, matching Integrate's window arithmetic). Times at or
// before the current step are a no-op, so a co-simulating caller may invoke
// it from every tick without tracking alignment itself.
func (s *Stepper) AdvanceTo(t float64) {
	target := int((t-s.t0)/s.h + 0.5)
	for s.n < target {
		s.Step()
	}
}
