package tcp

import (
	"pert/internal/netem"
	"pert/internal/sim"
)

// Sink is a TCP receiver at segment granularity: it reassembles the sequence
// space, returns one cumulative ACK (with up to 3 SACK blocks) per arriving
// data segment, and implements the receiver half of ECN (echoing CE via ECE
// until the sender's CWR arrives). Like ns-2's TCPSink, ACKs are immediate;
// delayed ACKs are not modeled.
type Sink struct {
	node *netem.Node
	net  *netem.Network
	flow int
	peer netem.NodeID

	cum     int64 // next expected segment
	ooo     Scoreboard
	ecnEcho bool

	// Delayed-ACK state (RFC 1122 style: ack every second segment or after
	// DelAckTimeout, immediately on out-of-order data). Disabled by
	// default, matching ns-2's TCPSink. The metadata of the most recent
	// unacked segment is copied rather than the packet retained: data
	// packets go back to the network's free list as soon as Receive
	// returns. The timer is persistent and rearmed in place.
	delAck        bool
	delAckTimeout sim.Duration
	pendingAcks   int
	pendingEcho   ackEcho // echo metadata of the most recent unacked segment
	delAckTimer   *sim.Timer

	// Stats.
	SegsReceived  uint64 // all data segments, including duplicates
	UniqueSegs    uint64 // first-time segments (goodput)
	BytesGoodput  uint64
	AcksSent      uint64
	LastArrival   sim.Time
	payloadPerSeg int
}

// EnableDelAck turns on delayed ACKs with the given timeout (0 selects the
// conventional 200 ms).
func (s *Sink) EnableDelAck(timeout sim.Duration) {
	if timeout == 0 {
		timeout = 200 * sim.Millisecond
	}
	s.delAck = true
	s.delAckTimeout = timeout
}

// ackEcho is the slice of a data segment's metadata an ACK echoes back to
// the sender; the delayed-ACK path copies it so the segment itself need not
// outlive Receive.
type ackEcho struct {
	seq         int64
	sentAt      sim.Time
	retrans     bool
	queueSample float64
	owd         sim.Duration
}

func echoOf(p *netem.Packet) ackEcho {
	return ackEcho{seq: p.Seq, sentAt: p.SentAt, retrans: p.Retrans, queueSample: p.QueueSample, owd: p.OWD}
}

// NewSink creates a receiver for the given flow, attached to node, acking
// back to peer.
func NewSink(net *netem.Network, node *netem.Node, flow int, peer netem.NodeID, payloadPerSeg int) *Sink {
	s := &Sink{}
	// Node engine, not network engine: the sink's timers belong to the
	// shard owning its node (see netem.Node.Engine).
	s.delAckTimer = node.Engine().NewTimer(s.flushAck)
	s.reset(net, node, flow, peer, payloadPerSeg)
	return s
}

// reset rebuilds every field of the sink from its arguments, as for a new
// one, and attaches it under flow. Only the persistent timer and the
// capacity of the reassembly scoreboard survive; the caller guarantees the
// timer is stopped.
func (s *Sink) reset(net *netem.Network, node *netem.Node, flow int, peer netem.NodeID, payloadPerSeg int) {
	*s = Sink{
		node:          node,
		net:           net,
		flow:          flow,
		peer:          peer,
		ooo:           Scoreboard{blocks: s.ooo.blocks[:0]},
		delAckTimer:   s.delAckTimer,
		payloadPerSeg: payloadPerSeg,
	}
	node.AttachFlow(flow, s)
}

// CumAck returns the receiver's next expected segment.
func (s *Sink) CumAck() int64 { return s.cum }

// Node returns the node the sink is attached to. Sharded runners use it to
// find the shard that owns the sink's counters.
func (s *Sink) Node() *netem.Node { return s.node }

// Receive implements netem.Handler for data segments.
func (s *Sink) Receive(p *netem.Packet, now sim.Time) {
	if p.IsAck {
		return // stray; sinks only consume data
	}
	s.SegsReceived++
	s.LastArrival = now

	if p.CE {
		s.ecnEcho = true
	}
	if p.CWR {
		s.ecnEcho = false
		if p.CE { // CE and CWR on the same segment: CE wins for later ACKs
			s.ecnEcho = true
		}
	}

	fresh := false
	advanced := false
	hadGap := s.ooo.SackedCount() > 0
	switch {
	case p.Seq == s.cum:
		fresh = true
		advanced = true
		s.cum++
		// Swallow any contiguous out-of-order run.
		blocks := s.ooo.Blocks()
		if len(blocks) > 0 && blocks[0].Start <= s.cum {
			s.cum = blocks[0].End
		}
		s.ooo.AckedUpTo(s.cum)
	case p.Seq > s.cum:
		if !s.ooo.IsSacked(p.Seq) {
			fresh = true
		}
		s.ooo.Add(netem.SackBlock{Start: p.Seq, End: p.Seq + 1})
	default:
		// Below cum: duplicate of something already delivered.
	}
	if fresh {
		s.UniqueSegs++
		s.BytesGoodput += uint64(s.payloadPerSeg)
	}

	// Delayed ACKs: in-order data may wait for a second segment or the
	// timer; out-of-order or duplicate data is acked immediately (fast
	// retransmit depends on prompt duplicate ACKs).
	// An ACK that fills a gap must go out immediately (RFC 5681), as must
	// duplicate ACKs for out-of-order data.
	inOrder := advanced && !hadGap
	if s.delAck && inOrder {
		s.pendingAcks++
		s.pendingEcho = echoOf(p)
		if s.pendingAcks < 2 {
			if !s.delAckTimer.Scheduled() {
				s.delAckTimer.ResetAfter(s.delAckTimeout)
			}
			return
		}
	}
	s.sendAck(echoOf(p))
}

// flushAck fires the delayed-ACK timer.
func (s *Sink) flushAck() {
	if s.pendingAcks == 0 {
		return
	}
	s.sendAck(s.pendingEcho)
}

// sendAck emits a cumulative ACK echoing the given data segment's metadata.
// The ACK is drawn from the network's packet pool and its SACK blocks live
// in the packet's inline array, so a steady ACK stream allocates nothing.
func (s *Sink) sendAck(m ackEcho) {
	s.pendingAcks = 0
	s.delAckTimer.Stop()
	ack := s.node.NewPacket()
	ack.Flow = s.flow
	ack.Src = s.node.ID
	ack.Dst = s.peer
	ack.Size = ackSize
	ack.IsAck = true
	ack.AckNo = s.cum
	ack.Echo = m.sentAt
	ack.ECE = s.ecnEcho
	ack.Retrans = m.retrans         // propagate so the sender can apply Karn's rule
	ack.QueueSample = m.queueSample // echo instrumentation back to the sender
	ack.OWD = m.owd                 // echo any measured forward one-way delay
	// Advertise up to 3 SACK blocks; the block containing the segment that
	// just arrived goes first, per RFC 2018.
	blocks := s.ooo.Blocks()
	if len(blocks) > 0 {
		ack.ResetSack()
		first := -1
		for i, b := range blocks {
			if m.seq >= b.Start && m.seq < b.End {
				first = i
				break
			}
		}
		if first >= 0 {
			ack.Sack = append(ack.Sack, blocks[first])
		}
		for i := len(blocks) - 1; i >= 0 && len(ack.Sack) < netem.MaxSackBlocks; i-- {
			if i != first {
				ack.Sack = append(ack.Sack, blocks[i])
			}
		}
	}
	s.AcksSent++
	s.net.SendFrom(s.node, ack)
}

// Close detaches the sink from its node and cancels any pending delayed
// ACK: a closed sink sends nothing.
func (s *Sink) Close() {
	s.delAckTimer.Stop()
	s.node.DetachFlow(s.flow)
}

// SinkAcceptor lazily creates receive-side Sinks for flows whose sender
// lives in another shard domain. A generator starting a connection mid-run
// cannot attach the Sink to a remote node directly — that would mutate the
// destination shard's demux table and engine from the sender's goroutine —
// so instead the destination node carries an acceptor: when the first data
// segment of an unknown flow arrives, the acceptor builds the Sink on the
// arrival goroutine, domain-locally, and the node re-dispatches the segment
// to it.
//
// Accepted sinks are never detached. Closing them from the sender's
// completion callback would be the same cross-domain race in reverse, and a
// self-closing sink can deadlock a flow whose final ACK is lost. The cost is
// one idle Sink per completed accepted flow, bounded by the number of
// transfers in the run.
type SinkAcceptor struct {
	net     *netem.Network
	node    *netem.Node
	payload int
	delAck  bool

	// Accepted counts sinks created, exported for tests.
	Accepted uint64
}

// AcceptSinks installs a SinkAcceptor on node (idempotent: a second call
// with the same payload/delAck configuration returns the existing acceptor;
// a conflicting configuration panics, since one node cannot sort arriving
// flows by which generator meant them). Call before the run starts.
func AcceptSinks(net *netem.Network, node *netem.Node, payload int, delAck bool) *SinkAcceptor {
	if payload <= 0 {
		payload = DefaultPayload
	}
	if owner := node.ListenerOwner(); owner != nil {
		a, ok := owner.(*SinkAcceptor)
		if !ok {
			panic("tcp: node already has a non-acceptor listener")
		}
		if a.payload != payload || a.delAck != delAck {
			panic("tcp: conflicting AcceptSinks configurations on one node")
		}
		return a
	}
	a := &SinkAcceptor{net: net, node: node, payload: payload, delAck: delAck}
	node.SetListener(a.accept, a)
	return a
}

// accept builds the Sink for a newly seen flow; the node re-dispatches the
// triggering segment immediately after.
func (a *SinkAcceptor) accept(p *netem.Packet, _ sim.Time) {
	s := NewSink(a.net, a.node, p.Flow, p.Src, a.payload)
	if a.delAck {
		s.EnableDelAck(0)
	}
	a.Accepted++
}
