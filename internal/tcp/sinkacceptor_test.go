package tcp

import (
	"testing"

	"pert/internal/netem"
	"pert/internal/sim"
)

func acceptorBed(t *testing.T) (*sim.Engine, *netem.Network, *netem.Node, *netem.Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netem.NewNetwork(eng)
	a, b := net.AddNode(), net.AddNode()
	q := func() netem.Discipline { return &sinkTail{} }
	net.AddDuplexLink(a, b, 1e9, sim.Millisecond, q(), q())
	net.ComputeRoutes()
	return eng, net, a, b
}

// TestShardSinkAcceptorCreatesSinkOnDemand: a data packet for an unknown flow
// conjures a sink on the receiving node, which acks it like a pre-attached
// one — the mechanism cross-domain web sessions rely on.
func TestShardSinkAcceptorCreatesSinkOnDemand(t *testing.T) {
	eng, net, a, b := acceptorBed(t)
	acc := AcceptSinks(net, b)
	catcher := &ackCatcher{}
	a.AttachFlow(7, catcher)
	for i := int64(0); i < 3; i++ {
		p := seg(net, a, i)
		p.Flow, p.Dst = 7, b.ID
		net.SendFrom(a, p)
	}
	eng.Run(sim.Second)
	if acc.Accepted != 1 {
		t.Fatalf("accepted %d sinks, want 1 (one per flow, not per packet)", acc.Accepted)
	}
	if len(catcher.acks) != 3 {
		t.Fatalf("got %d acks, want 3", len(catcher.acks))
	}
	if last := catcher.acks[len(catcher.acks)-1]; last.AckNo != 3 {
		t.Fatalf("final cumulative ack = %d, want 3", last.AckNo)
	}
}

// TestShardSinkAcceptorIgnoresAcks: stray ACKs for unknown flows must not
// create sinks — only forward data does.
func TestShardSinkAcceptorIgnoresAcks(t *testing.T) {
	eng, net, a, b := acceptorBed(t)
	acc := AcceptSinks(net, b)
	ack := &netem.Packet{ID: net.NewPacketID(), Flow: 9, Src: a.ID, Dst: b.ID, Size: 40, IsAck: true, AckNo: 5}
	net.SendFrom(a, ack)
	eng.Run(sim.Second)
	if acc.Accepted != 0 {
		t.Fatalf("a stray ACK created %d sinks", acc.Accepted)
	}
}

// TestShardSinkAcceptorIdempotent: a second installation returns the
// existing acceptor; installing on a node that already carries another kind
// of listener is a programming error and panics, leaving that listener in
// place.
func TestShardSinkAcceptorIdempotent(t *testing.T) {
	_, net, a, b := acceptorBed(t)
	first := AcceptSinks(net, b)
	if again := AcceptSinks(net, b); again != first {
		t.Fatal("reinstall did not return the existing acceptor")
	}
	const foreign = "foreign"
	a.SetListener(func(*netem.Packet, sim.Time) {}, foreign)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AcceptSinks on a node with a non-acceptor listener did not panic")
			}
		}()
		AcceptSinks(net, a)
	}()
	if owner := a.ListenerOwner(); owner != foreign {
		t.Fatalf("listener owner = %v after the rejected install, want %q", owner, foreign)
	}
}
