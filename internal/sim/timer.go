package sim

// Timer is a persistent, rearmable scheduled callback — the handle type for
// event sources that fire many times over a run (TCP retransmission and
// delayed-ACK timers, link transmit completions, periodic samplers). Unlike
// the one-shot Event returned by At, a Timer is allocated once and then
// rearmed with Reset for the lifetime of its owner.
//
// Every Reset stamps the timer with a fresh engine sequence number, drawn
// from the same counter At uses, and the timer fires under exactly that
// (when, seq) key — so a Reset tie-breaks against same-instant events like
// the cancel-and-reschedule pattern it replaces, and timers cannot perturb
// deterministic event order.
//
// What Reset does not do is push a heap key per call. A timer has at most
// one live key in the heap, its carrier. Moving the deadline later (an RTO
// pushed out by every ACK) only updates the stamp; when the carrier surfaces
// the engine sees the stamp has moved on and re-pushes it under the key the
// latest Reset assigned, without advancing the clock or counting an event.
// Only a Reset earlier than the carrier pushes a new one, and the old
// carrier is then discarded when it surfaces (lazy deletion, as for a
// stopped timer). The firing key is the same either way; the heap just no
// longer fills with superseded deadlines.
type Timer struct {
	engine    *Engine
	fn        func()
	when      Time
	seq       uint64
	scheduled bool

	// The live carrier's heap key; carrierSeq 0 means none (sequence numbers
	// start at 1). Invariant while carried: carrierAt <= when.
	carrierAt  Time
	carrierSeq uint64
}

// NewTimer returns an unarmed timer that runs fn when it fires. Arm it with
// Reset or ResetAfter.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{engine: e, fn: fn}
}

// Reset (re)arms the timer to fire at absolute virtual time at, replacing
// any pending deadline. Resetting to the past panics, like At.
func (t *Timer) Reset(at Time) {
	e := t.engine
	e.checkFuture(at)
	e.seq++
	t.seq = e.seq
	t.when = at
	if !t.scheduled {
		t.scheduled = true
		e.live++
	}
	if t.carrierSeq == 0 || at < t.carrierAt {
		t.carrierAt, t.carrierSeq = at, t.seq
		e.enqueue(at, t.seq, nil, t)
	}
}

// ResetAfter (re)arms the timer to fire d after the current time.
func (t *Timer) ResetAfter(d Duration) {
	if d < 0 {
		panic("sim: negative delay")
	}
	t.Reset(t.engine.now + d)
}

// Stop disarms the timer. Stopping an unarmed timer is a no-op. The timer
// remains usable: Reset rearms it.
func (t *Timer) Stop() {
	if t.scheduled {
		t.scheduled = false
		t.engine.live--
	}
}

// Scheduled reports whether the timer is armed.
func (t *Timer) Scheduled() bool { return t.scheduled }

// When reports the armed deadline; meaningful only while Scheduled.
func (t *Timer) When() Time { return t.when }
