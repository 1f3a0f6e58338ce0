package tcp

import (
	"pert/internal/netem"
	"pert/internal/sim"
)

// Sink is a TCP receiver at segment granularity: it reassembles the sequence
// space, returns one cumulative ACK (with up to 3 SACK blocks) per arriving
// data segment, and implements the receiver half of ECN (echoing CE via ECE
// until the sender's CWR arrives). Like ns-2's TCPSink, every ACK is sent
// the moment its segment arrives: delayed ACKs are not modeled.
type Sink struct {
	node *netem.Node
	net  *netem.Network
	flow int
	peer netem.NodeID

	cum     int64 // next expected segment
	ooo     Scoreboard
	ecnEcho bool

	// Stats.
	SegsReceived uint64 // all data segments, including duplicates
	UniqueSegs   uint64 // first-time segments (goodput)
	BytesGoodput uint64
	AcksSent     uint64
	LastArrival  sim.Time
}

// NewSink creates a receiver for the given flow, attached to node, acking
// back to peer.
func NewSink(net *netem.Network, node *netem.Node, flow int, peer netem.NodeID) *Sink {
	s := &Sink{}
	s.reset(net, node, flow, peer)
	return s
}

// reset rebuilds every field of the sink from its arguments, as for a new
// one, and attaches it under flow. Only the capacity of the reassembly
// scoreboard survives.
func (s *Sink) reset(net *netem.Network, node *netem.Node, flow int, peer netem.NodeID) {
	*s = Sink{
		node: node,
		net:  net,
		flow: flow,
		peer: peer,
		ooo:  Scoreboard{blocks: s.ooo.blocks[:0]},
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
	switch {
	case p.Seq == s.cum:
		fresh = true
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
		s.BytesGoodput += payloadSize
	}
	s.sendAck(p)
}

// sendAck emits a cumulative ACK for the data segment p, which has just
// arrived, echoing its metadata. The ACK is drawn from the network's packet
// pool and its SACK blocks live in the packet's inline array, so a steady
// ACK stream allocates nothing.
func (s *Sink) sendAck(p *netem.Packet) {
	ack := s.node.NewPacket()
	ack.Flow = s.flow
	ack.Src = s.node.ID
	ack.Dst = s.peer
	ack.Size = ackSize
	ack.IsAck = true
	ack.AckNo = s.cum
	ack.Echo = p.SentAt
	ack.ECE = s.ecnEcho
	ack.Retrans = p.Retrans         // propagate so the sender can apply Karn's rule
	ack.QueueSample = p.QueueSample // echo instrumentation back to the sender
	// Advertise up to 3 SACK blocks; the block containing the segment that
	// just arrived goes first, per RFC 2018.
	blocks := s.ooo.Blocks()
	if len(blocks) > 0 {
		ack.ResetSack()
		first := -1
		for i, b := range blocks {
			if p.Seq >= b.Start && p.Seq < b.End {
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

// Close detaches the sink from its node.
func (s *Sink) Close() { s.node.DetachFlow(s.flow) }

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
	net  *netem.Network
	node *netem.Node

	// Accepted counts sinks created, exported for tests.
	Accepted uint64
}

// AcceptSinks installs a SinkAcceptor on node (idempotent: a second call
// returns the existing acceptor; a node already carrying another kind of
// listener panics). Call before the run starts.
func AcceptSinks(net *netem.Network, node *netem.Node) *SinkAcceptor {
	if owner := node.ListenerOwner(); owner != nil {
		a, ok := owner.(*SinkAcceptor)
		if !ok {
			panic("tcp: node already has a non-acceptor listener")
		}
		return a
	}
	a := &SinkAcceptor{net: net, node: node}
	node.SetListener(a.accept, a)
	return a
}

// accept builds the Sink for a newly seen flow; the node re-dispatches the
// triggering segment immediately after.
func (a *SinkAcceptor) accept(p *netem.Packet, _ sim.Time) {
	NewSink(a.net, a.node, p.Flow, p.Src)
	a.Accepted++
}
