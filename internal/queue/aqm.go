package queue

import (
	"math/rand"

	"pert/internal/netem"
	"pert/internal/sim"
)

// aqm is what every marking discipline shares: the buffer and its hard
// limit, the ECN switch, the marking generator, the decision counters, and
// the one action a discipline takes once its own law has decided to signal
// congestion. RED, PI, REM and AVQ differ only in when they call early.
type aqm struct {
	limit int
	ecn   bool

	q   fifo
	rng *rand.Rand

	// Cumulative decision counters, exported for tests and instrumentation.
	EarlyDrops  uint64
	ForcedDrops uint64
	ECNMarks    uint64
}

// full reports, and counts as a forced drop, an arrival that finds the
// buffer at its limit.
func (a *aqm) full() bool {
	if a.q.len() >= a.limit {
		a.ForcedDrops++
		return true
	}
	return false
}

// early signals congestion on p: an ECN-capable packet is marked when ECN is
// on, any other is dropped. It reports whether p may still be queued.
func (a *aqm) early(p *netem.Packet) bool {
	if a.ecn && p.ECT {
		p.CE = true
		a.ECNMarks++
		return true
	}
	a.EarlyDrops++
	return false
}

// BindRand rebinds the marking RNG. netem.Partition calls this to move a
// queue's randomness onto its owning shard's engine; for the domain-0 links
// of a topology built on engine 0 the new generator is the same object the
// queue was constructed with, so serial draw order is untouched. Must not be
// called after traffic has flowed.
func (a *aqm) BindRand(rng *rand.Rand) { a.rng = rng }

// Dequeue implements netem.Discipline.
func (a *aqm) Dequeue(_ sim.Time) *netem.Packet { return a.q.pop() }

// Len implements netem.Discipline.
func (a *aqm) Len() int { return a.q.len() }

// Bytes implements netem.Discipline.
func (a *aqm) Bytes() int { return a.q.bytes }
