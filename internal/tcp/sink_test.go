package tcp

import (
	"testing"

	"pert/internal/netem"
	"pert/internal/sim"
)

// ackCatcher builds a 2-node network where the test plays the sender and
// inspects every ACK the sink returns.
type ackCatcher struct {
	acks []*netem.Packet
}

func (a *ackCatcher) Receive(p *netem.Packet, _ sim.Time) {
	if p.IsAck {
		a.acks = append(a.acks, p)
	}
}

func sinkBed(t *testing.T) (*sim.Engine, *netem.Network, *netem.Node, *Sink, *ackCatcher) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := netem.NewNetwork(eng)
	a, b := net.AddNode(), net.AddNode()
	q := func() netem.Discipline { return &sinkTail{} }
	net.AddDuplexLink(a, b, 1e9, sim.Millisecond, q(), q())
	net.ComputeRoutes()
	catcher := &ackCatcher{}
	a.AttachFlow(1, catcher)
	s := NewSink(net, b, 1, a.ID)
	return eng, net, a, s, catcher
}

// sinkTail is an unbounded FIFO for test links.
type sinkTail struct {
	pkts  []*netem.Packet
	bytes int
}

func (t *sinkTail) Enqueue(p *netem.Packet, _ sim.Time) bool {
	t.pkts = append(t.pkts, p)
	t.bytes += p.Size
	return true
}
func (t *sinkTail) Dequeue(_ sim.Time) *netem.Packet {
	if len(t.pkts) == 0 {
		return nil
	}
	p := t.pkts[0]
	t.pkts = t.pkts[1:]
	t.bytes -= p.Size
	return p
}
func (t *sinkTail) Len() int   { return len(t.pkts) }
func (t *sinkTail) Bytes() int { return t.bytes }

func seg(net *netem.Network, a *netem.Node, seq int64) *netem.Packet {
	return &netem.Packet{
		ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: netem.NodeID(1),
		Size: 1040, Seq: seq, SentAt: net.Engine().Now(), QueueSample: -1,
	}
}

func TestSinkCumulativeAck(t *testing.T) {
	eng, net, a, s, catcher := sinkBed(t)
	for i := int64(0); i < 3; i++ {
		net.SendFrom(a, seg(net, a, i))
	}
	eng.Run(sim.Second)
	if s.CumAck() != 3 {
		t.Fatalf("cum = %d", s.CumAck())
	}
	if len(catcher.acks) != 3 {
		t.Fatalf("acks = %d", len(catcher.acks))
	}
	for i, ack := range catcher.acks {
		if ack.AckNo != int64(i+1) {
			t.Fatalf("ack %d carries %d", i, ack.AckNo)
		}
		if len(ack.Sack) != 0 {
			t.Fatalf("in-order ack %d carries SACK %v", i, ack.Sack)
		}
	}
	if s.UniqueSegs != 3 || s.BytesGoodput != 3000 {
		t.Fatalf("goodput: %d segs %d bytes", s.UniqueSegs, s.BytesGoodput)
	}
}

func TestSinkOutOfOrderSack(t *testing.T) {
	eng, net, a, s, catcher := sinkBed(t)
	net.SendFrom(a, seg(net, a, 0))
	net.SendFrom(a, seg(net, a, 2)) // hole at 1
	net.SendFrom(a, seg(net, a, 4)) // hole at 3
	eng.Run(sim.Second)
	if s.CumAck() != 1 {
		t.Fatalf("cum = %d", s.CumAck())
	}
	last := catcher.acks[len(catcher.acks)-1]
	if last.AckNo != 1 {
		t.Fatalf("dup ack carries %d", last.AckNo)
	}
	if len(last.Sack) != 2 {
		t.Fatalf("sack blocks = %v", last.Sack)
	}
	// Most recent block ([4,5)) first per RFC 2018.
	if last.Sack[0] != (netem.SackBlock{Start: 4, End: 5}) {
		t.Fatalf("first block = %v", last.Sack[0])
	}
	// Filling the first hole advances cum through the contiguous run.
	net.SendFrom(a, seg(net, a, 1))
	eng.Run(eng.Now() + sim.Second)
	if s.CumAck() != 3 {
		t.Fatalf("cum after fill = %d", s.CumAck())
	}
	// Duplicate delivery does not recount goodput.
	before := s.UniqueSegs
	net.SendFrom(a, seg(net, a, 2))
	eng.Run(eng.Now() + sim.Second)
	if s.UniqueSegs != before {
		t.Fatal("duplicate counted as goodput")
	}
}

func TestSinkEchoesTimestampAndQueueSample(t *testing.T) {
	eng, net, a, _, catcher := sinkBed(t)
	p := seg(net, a, 0)
	p.SentAt = 123 * sim.Millisecond
	p.QueueSample = 0.42
	net.SendFrom(a, p)
	eng.Run(sim.Second)
	ack := catcher.acks[0]
	if ack.Echo != 123*sim.Millisecond {
		t.Fatalf("echo = %v", ack.Echo)
	}
	if ack.QueueSample != 0.42 {
		t.Fatalf("queue sample = %v", ack.QueueSample)
	}
}

func TestSinkECNEchoPersistsUntilCWR(t *testing.T) {
	eng, net, a, _, catcher := sinkBed(t)
	p := seg(net, a, 0)
	p.CE = true
	net.SendFrom(a, p)
	net.SendFrom(a, seg(net, a, 1)) // no CE: ECE must persist
	eng.Run(sim.Second)
	if !catcher.acks[0].ECE || !catcher.acks[1].ECE {
		t.Fatal("ECE not echoed persistently")
	}
	// CWR clears the echo.
	cwr := seg(net, a, 2)
	cwr.CWR = true
	net.SendFrom(a, cwr)
	net.SendFrom(a, seg(net, a, 3))
	eng.Run(eng.Now() + sim.Second)
	if catcher.acks[2].ECE || catcher.acks[3].ECE {
		t.Fatal("ECE survived CWR")
	}
}

func TestSinkRetransFlagPropagates(t *testing.T) {
	eng, net, a, _, catcher := sinkBed(t)
	p := seg(net, a, 0)
	p.Retrans = true
	net.SendFrom(a, p)
	eng.Run(sim.Second)
	if !catcher.acks[0].Retrans {
		t.Fatal("Karn flag lost")
	}
}

func TestSinkIgnoresStrayAcks(t *testing.T) {
	eng, net, a, s, _ := sinkBed(t)
	ack := &netem.Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: 1, Size: 40, IsAck: true, AckNo: 99}
	net.SendFrom(a, ack)
	eng.Run(sim.Second)
	if s.CumAck() != 0 || s.SegsReceived != 0 {
		t.Fatal("sink consumed a stray ACK")
	}
}
