package netem

import (
	"fmt"

	"pert/internal/sim"
)

// Node is a network node: an end host or a router. Packets addressed to the
// node are demultiplexed to a registered Handler by flow ID; everything else
// is forwarded along the static route toward its destination.
type Node struct {
	ID    NodeID
	net   *Network
	dom   *domain         // shard domain owning this node (domain.go)
	out   []*Link         // links originating here
	next  []*Link         // next-hop link per destination NodeID; nil = unreachable
	demux map[int]Handler // flow ID -> local agent

	// listener, if set, is consulted when a non-ACK packet arrives for a
	// flow with no registered handler (SetListener).
	listener      func(p *Packet, now sim.Time)
	listenerOwner any
}

// SetListener installs a catch-all hook for data packets arriving at this
// node with no registered flow handler. The listener runs on the node's
// owning engine and may attach a Handler for p.Flow (via AttachFlow);
// Receive then re-dispatches the triggering packet to it. This is how
// cross-domain traffic generators lazily create receive-side agents on the
// destination's own shard rather than racing its demux table from another
// goroutine. ACKs never trigger the listener: an ACK for an unknown flow
// still means a closed connection, not a new one. Installing a second
// listener panics — two generators claiming one node's stray packets would
// steal each other's flows; owner is an opaque cookie installers use to
// recognize (and validate against) their own earlier installation via
// ListenerOwner.
func (n *Node) SetListener(fn func(p *Packet, now sim.Time), owner any) {
	if n.listener != nil && fn != nil {
		panic("netem: node already has a listener")
	}
	n.listener = fn
	n.listenerOwner = owner
}

// ListenerOwner returns the owner cookie of the installed listener, or nil
// when the node has none.
func (n *Node) ListenerOwner() any {
	if n.listener == nil {
		return nil
	}
	return n.listenerOwner
}

// AttachFlow registers h to receive packets of the given flow arriving at
// this node. Both endpoints of a TCP connection register under the same flow
// ID at their respective nodes.
func (n *Node) AttachFlow(flow int, h Handler) {
	n.demux[flow] = h
}

// DetachFlow removes a flow registration (e.g. when a web transfer ends).
func (n *Node) DetachFlow(flow int) {
	delete(n.demux, flow)
}

// Receive handles a packet arriving at the node: local delivery if the node
// is the destination, otherwise forwarding. Local delivery is a packet's
// terminal point: once the handler returns the packet goes back to the
// network's free list, so handlers (and the observers they call) must copy
// any fields they keep — the Handler contract has always been synchronous
// consumption, and the pool now enforces it.
func (n *Node) Receive(p *Packet) {
	if p.Dst == n.ID {
		n.dom.acct.Delivered++
		now := n.dom.eng.Now()
		h, ok := n.demux[p.Flow]
		if !ok && n.listener != nil && !p.IsAck {
			// Give the catch-all listener a chance to attach a handler
			// (lazy receive-side setup for cross-domain flows), then
			// re-dispatch this packet to whatever it registered.
			n.listener(p, now)
			h, ok = n.demux[p.Flow]
		}
		if ok {
			h.Receive(p, now)
		}
		// Packets for unregistered flows (e.g. ACKs racing a closed
		// connection) are silently discarded, as a real host would RST.
		n.dom.releasePacket(p)
		return
	}
	n.Forward(p)
}

// Forward sends the packet along the static route toward p.Dst. Packets with
// no route are dropped; topologies in this repository are always connected,
// so this indicates a configuration error and panics.
func (n *Node) Forward(p *Packet) {
	l := n.next[p.Dst]
	if l == nil {
		panic(fmt.Sprintf("netem: node %d has no route to %d", n.ID, p.Dst))
	}
	l.Send(p)
}

// LinkTo returns the direct link from n to the given neighbor, or nil.
func (n *Node) LinkTo(to NodeID) *Link {
	for _, l := range n.out {
		if l.To.ID == to {
			return l
		}
	}
	return nil
}

// Network is a static topology of nodes and unidirectional links plus the
// simulation engine they share. Build topologies by adding nodes and links,
// then call ComputeRoutes once before starting traffic.
type Network struct {
	eng   *sim.Engine
	Nodes []*Node

	// doms are the shard domains (domain.go), each owning its engine,
	// packet pool/ID counter, and conservation-ledger column. An
	// unpartitioned network has exactly one; Partition replaces the slice.
	// Each node and link points at its owning domain directly, so the hot
	// path never searches this slice.
	doms []*domain
}

// NewNetwork returns an empty network bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, doms: []*domain{{idx: 0, eng: eng}}}
}

// Engine returns the simulation engine the network was built on (shard 0's
// engine when partitioned). Endpoint code scheduling per-node work should
// use Node.Engine instead.
func (n *Network) Engine() *sim.Engine { return n.eng }

// AddNode creates a new node and returns it.
func (n *Network) AddNode() *Node {
	node := &Node{ID: NodeID(len(n.Nodes)), net: n, dom: n.doms[0], demux: make(map[int]Handler)}
	n.Nodes = append(n.Nodes, node)
	return node
}

// AddLink creates a unidirectional link from from to to with the given
// capacity (bits/s), propagation delay, and queue discipline.
func (n *Network) AddLink(from, to *Node, capacity float64, delay sim.Duration, q Discipline) *Link {
	if capacity <= 0 {
		panic("netem: non-positive link capacity")
	}
	l := &Link{From: from, To: to, Capacity: capacity, Delay: delay, Queue: q, eng: from.dom.eng, dom: from.dom}
	l.txDone = l.eng.NewTimer(l.completeTx)
	l.arriveFn = func(a any) { l.arrive(a.(*Packet)) }
	l.arrivals.Init(l.eng, l.arriveFn)
	from.out = append(from.out, l)
	return l
}

// AddDuplexLink creates a pair of symmetric links between a and b, one queue
// discipline each (qab serves a->b, qba serves b->a).
func (n *Network) AddDuplexLink(a, b *Node, capacity float64, delay sim.Duration, qab, qba Discipline) (ab, ba *Link) {
	ab = n.AddLink(a, b, capacity, delay, qab)
	ba = n.AddLink(b, a, capacity, delay, qba)
	return ab, ba
}

// NewPacketID returns a fresh unique packet ID from domain 0's counter.
// Per-node endpoint code should use Node.NewPacket, which mints from the
// owning domain.
func (n *Network) NewPacketID() uint64 { return n.doms[0].newPacketID() }

// NewPacket returns a zeroed packet with a fresh ID, drawn from domain 0's
// free list when possible. Pool-allocated packets are recycled at their
// terminal points (local delivery, queue drop, wire loss), so callers must
// not retain them past the handler or observer callback that sees them.
// Each free list is LIFO and touched only from its owning shard's
// goroutine, so pooling cannot perturb deterministic packet identity: IDs
// still come from per-domain counters in per-domain order.
func (n *Network) NewPacket() *Packet { return n.doms[0].newPacket() }

// ReleasePacket returns a pool-allocated packet to domain 0's free list.
// Packets constructed directly (tests, external drivers) are ignored, so
// terminal points may release unconditionally. Releasing the same packet
// twice panics: a double free would alias two live packets and silently
// corrupt the run.
func (n *Network) ReleasePacket(p *Packet) { n.doms[0].releasePacket(p) }

// ComputeRoutes fills every node's next-hop table with shortest paths by hop
// count (BFS from every destination). Must be called after the topology is
// complete and before any traffic is sent.
func (n *Network) ComputeRoutes() {
	size := len(n.Nodes)
	// adj[v] lists links arriving at v, so a reverse BFS from each
	// destination labels every node with its next-hop link toward it.
	in := make([][]*Link, size)
	for _, node := range n.Nodes {
		for _, l := range node.out {
			in[l.To.ID] = append(in[l.To.ID], l)
		}
	}
	for _, node := range n.Nodes {
		node.next = make([]*Link, size)
	}
	// One visited set and one index-headed queue serve every BFS: each node
	// enters the queue at most once per destination, so size slots suffice.
	visited := make([]bool, size)
	queue := make([]NodeID, 0, size)
	for dst := range n.Nodes {
		clear(visited)
		visited[dst] = true
		queue = append(queue[:0], NodeID(dst))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, l := range in[v] {
				u := l.From.ID
				if visited[u] {
					continue
				}
				visited[u] = true
				l.From.next[dst] = l
				queue = append(queue, u)
			}
		}
	}
}

// SendFrom injects a packet into the network at the source node, routing it
// toward its destination. Packets originating at a node still traverse that
// node's outgoing link queue.
func (n *Network) SendFrom(src *Node, p *Packet) {
	src.dom.acct.Injected++
	if p.Dst == src.ID {
		src.Receive(p)
		return
	}
	src.Forward(p)
}
