// Package queue implements the queue-management disciplines the paper
// evaluates against: DropTail, RED with gentle mode and ECN marking
// (Floyd/Jacobson 1993), Adaptive RED (Floyd/Gummadi/Shenker 2001), the PI
// controller of Hollot et al. (INFOCOM 2001) with the published
// control-theoretic design rule for its gains, REM (Athuraliya et al. 2001)
// and AVQ (Kunniyur/Srikant 2001). The marking disciplines share one
// mark-or-drop action (aqm) and differ only in their law for when to act.
package queue

import (
	"pert/internal/netem"
	"pert/internal/sim"
)

// fifo is the shared packet buffer used by all disciplines. It is a slice
// ring with amortized O(1) enqueue/dequeue.
type fifo struct {
	pkts  []*netem.Packet
	head  int
	bytes int
}

func (f *fifo) push(p *netem.Packet) {
	f.pkts = append(f.pkts, p)
	f.bytes += p.Size
}

func (f *fifo) pop() *netem.Packet {
	if f.head >= len(f.pkts) {
		return nil
	}
	p := f.pkts[f.head]
	f.pkts[f.head] = nil
	f.head++
	f.bytes -= p.Size
	// Reclaim space once the consumed prefix dominates.
	if f.head > 64 && f.head*2 >= len(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		f.pkts = f.pkts[:n]
		f.head = 0
	}
	return p
}

func (f *fifo) len() int { return len(f.pkts) - f.head }

// DropTail is a FIFO queue with a hard capacity in packets: arrivals beyond
// the limit are dropped. This is the default router behaviour PERT and Vegas
// are evaluated over in the paper.
type DropTail struct {
	Limit int // capacity in packets
	q     fifo
}

// NewDropTail returns a DropTail queue holding at most limit packets.
func NewDropTail(limit int) *DropTail {
	if limit <= 0 {
		panic("queue: non-positive DropTail limit")
	}
	return &DropTail{Limit: limit}
}

// Enqueue implements netem.Discipline.
func (d *DropTail) Enqueue(p *netem.Packet, _ sim.Time) bool {
	if d.q.len() >= d.Limit {
		return false
	}
	d.q.push(p)
	return true
}

// Dequeue implements netem.Discipline.
func (d *DropTail) Dequeue(_ sim.Time) *netem.Packet { return d.q.pop() }

// Len implements netem.Discipline.
func (d *DropTail) Len() int { return d.q.len() }

// Bytes implements netem.Discipline.
func (d *DropTail) Bytes() int { return d.q.bytes }
