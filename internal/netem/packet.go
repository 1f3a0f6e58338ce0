// Package netem models network elements at packet granularity: packets,
// nodes, unidirectional links with output queues, and static shortest-path
// routing. Together with a queue discipline (internal/queue) and endpoint
// agents (internal/tcp) it forms the packet-level simulator the paper's ns-2
// evaluation is reproduced on.
package netem

import (
	"math/rand"

	"pert/internal/sim"
)

// NodeID identifies a node within a Network. IDs are dense indices assigned
// by Network.AddNode.
type NodeID int

// SackBlock is a contiguous range of received segments [Start, End)
// advertised by a receiver, in segment numbers.
type SackBlock struct {
	Start, End int64
}

// MaxSackBlocks is the most SACK blocks one ACK advertises (RFC 2018's
// practical limit with timestamps), and the capacity of every packet's
// inline SACK storage.
const MaxSackBlocks = 3

// Pool states for Packet.pool. Foreign packets (constructed directly rather
// than via Network.NewPacket) are never recycled.
const (
	pktForeign uint8 = iota
	pktLive
	pktFree
)

// Packet is a simulated packet. Like ns-2, TCP is modeled at segment
// granularity: Seq and AckNo count segments, not bytes; Size is the wire size
// in bytes used for link timing and queue accounting.
type Packet struct {
	ID   uint64
	Flow int
	Src  NodeID
	Dst  NodeID
	Size int // bytes on the wire

	// TCP fields.
	IsAck bool
	Seq   int64 // data: segment sequence number
	AckNo int64 // ack: next expected segment (cumulative)
	// Sack lists up to MaxSackBlocks most recent received blocks on an ACK.
	// Receivers on the hot path call ResetSack and append, which backs the
	// slice with the packet's inline sackStore array instead of a fresh
	// heap allocation per ACK; hand-built packets may still assign any
	// slice directly.
	Sack []SackBlock

	// ECN (RFC 3168) fields. ECT marks the packet as ECN-capable; CE is set
	// by an AQM in place of a drop; ECE is the receiver's echo back to the
	// sender; CWR acknowledges the echo.
	ECT bool
	CE  bool
	ECE bool
	CWR bool

	// SentAt is stamped by the sender on data packets and echoed in Echo on
	// the corresponding ACK, giving per-packet RTT samples.
	SentAt sim.Time
	Echo   sim.Time

	// Retrans marks retransmitted data segments; their echoed timestamps are
	// ambiguous and excluded from RTT sampling (Karn's rule).
	Retrans bool

	// QueueSample is measurement instrumentation (not protocol state): a
	// probe point (e.g. the bottleneck queue) can stamp the occupancy this
	// packet observed, and receivers echo it on ACKs, giving per-sample
	// ground truth for the Section 2 study. Negative means unset.
	QueueSample float64

	// sackStore is the inline backing array ResetSack points Sack at.
	sackStore [MaxSackBlocks]SackBlock
	// pool tracks free-list membership; see Network.NewPacket.
	pool uint8
}

// ResetSack empties the packet's SACK list and points it at the inline
// backing array, so up to MaxSackBlocks appends allocate nothing.
func (p *Packet) ResetSack() { p.Sack = p.sackStore[:0] }

// Handler consumes packets addressed to a node's local agents.
type Handler interface {
	Receive(p *Packet, now sim.Time)
}

// Discipline is a queue management algorithm attached to a link. Enqueue
// either accepts the packet (possibly setting CE on ECN-capable packets in
// place of a drop) and returns true, or rejects it and returns false.
// Dequeue returns nil when the queue is empty.
//
// Marking contract: a discipline may set CE only inside Enqueue, never at
// Dequeue or between calls. Link.Send counts a mark by comparing CE across
// the Enqueue call, so a dequeue-time mark would silently go uncounted; the
// conformance suite (internal/queue) asserts every discipline honors this.
// All AQMs in this repository (RED, Adaptive RED, PI, REM, AVQ) are
// enqueue-marking by construction, matching their published forms.
type Discipline interface {
	Enqueue(p *Packet, now sim.Time) bool
	Dequeue(now sim.Time) *Packet
	Len() int   // packets queued
	Bytes() int // bytes queued
}

// RandBinder is implemented by disciplines whose decisions draw from a
// random generator. Network.Partition rebinds each such queue that leaves
// domain 0 to its owning shard's engine generator so marking randomness
// stays domain-local; links staying in domain 0 keep the generator the queue
// was built with, preserving serial draw order bit for bit.
type RandBinder interface {
	BindRand(*rand.Rand)
}
