package tcp

import (
	"testing"

	"pert/internal/core"
	"pert/internal/netem"
	"pert/internal/sim"
)

func TestMaxBurstCapsSendsPerAck(t *testing.T) {
	// A stretch-ACK situation: force a large window, then deliver one ACK
	// covering many segments and count the immediate transmissions.
	eng, d := testbed(t, 1, 100e6, 60*sim.Millisecond, 1, 10000)
	f := NewFlow(d.Net, d.Left[0], d.Right[0], 1, Reno{}, Config{MaxBurst: 4})
	f.Start(0)
	eng.Run(2 * sim.Second) // slow start opens the window wide

	sent := f.Conn.Stats.SegsSent
	// Synthesize a stretch ACK covering 20 new segments.
	una := f.Conn.SndUna()
	f.Conn.Receive(&netem.Packet{IsAck: true, AckNo: una + 20, Flow: 1}, eng.Now())
	burst := f.Conn.Stats.SegsSent - sent
	if burst > 4 {
		t.Fatalf("burst of %d segments after one ACK, cap is 4", burst)
	}
}

func TestECNResponseOncePerWindow(t *testing.T) {
	eng, d := testbed(t, 1, 50e6, 60*sim.Millisecond, 1, 10000)
	f := NewFlow(d.Net, d.Left[0], d.Right[0], 1, Reno{}, Config{ECN: true})
	f.Start(0)
	eng.Run(2 * sim.Second)
	cwnd0 := f.Conn.Cwnd()
	// Two back-to-back ECE ACKs: only the first halves within the window.
	una := f.Conn.SndUna()
	f.Conn.Receive(&netem.Packet{IsAck: true, AckNo: una + 1, ECE: true, Flow: 1}, eng.Now())
	afterFirst := f.Conn.Cwnd()
	f.Conn.Receive(&netem.Packet{IsAck: true, AckNo: una + 2, ECE: true, Flow: 1}, eng.Now())
	afterSecond := f.Conn.Cwnd()
	if afterFirst >= cwnd0 {
		t.Fatalf("first ECE did not reduce: %v -> %v", cwnd0, afterFirst)
	}
	if afterSecond < afterFirst-1 {
		t.Fatalf("second ECE in the same window reduced again: %v -> %v", afterFirst, afterSecond)
	}
	if f.Conn.Stats.ECNResponses != 1 {
		t.Fatalf("ECN responses = %d", f.Conn.Stats.ECNResponses)
	}
}

func TestCWRSetOnNextSegmentAfterECE(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netem.NewNetwork(eng)
	a, b := net.AddNode(), net.AddNode()
	q := func() netem.Discipline { return &sinkTail{} }
	ab := net.AddLink(a, b, 1e9, sim.Millisecond, q())
	net.AddLink(b, a, 1e9, sim.Millisecond, q())
	net.ComputeRoutes()
	var cwrSeen bool
	ab.OnDepart = func(p *netem.Packet, _ sim.Time) {
		if p.CWR {
			cwrSeen = true
		}
	}
	f := NewFlow(net, a, b, 1, Reno{}, Config{ECN: true})
	f.Start(0)
	eng.Run(sim.Second)
	una := f.Conn.SndUna()
	f.Conn.Receive(&netem.Packet{IsAck: true, AckNo: una + 1, ECE: true, Flow: 1}, eng.Now())
	eng.Run(eng.Now() + sim.Second)
	if !cwrSeen {
		t.Fatal("CWR never transmitted after ECN response")
	}
}

func TestPERTPIFlowRuns(t *testing.T) {
	eng, d := testbed(t, 13, 10e6, 60*sim.Millisecond, 2, 0)
	params := core.DesignPERTPI(10e6/(8*1040), 2, 120*sim.Millisecond)
	for i := 0; i < 2; i++ {
		cc := NewPERTLazy(func(c *Conn) core.Responder {
			return core.NewPIResponder(c.Engine().Rand(), params, sim.Milliseconds(1.7), 3*sim.Millisecond)
		})
		f := NewFlow(d.Net, d.Left[i], d.Right[i], i+1, cc, Config{})
		f.Start(sim.Time(i) * 100 * sim.Millisecond)
	}
	eng.Run(40 * sim.Second) // the slow PI integrator needs a long warm-up
	start := d.Forward.Stats.TxBytes
	drops0 := d.Forward.Stats.Drops
	eng.Run(50 * sim.Second)
	if u := d.Forward.Utilization(start, 10*sim.Second); u < 0.7 {
		t.Fatalf("PERT/PI utilization = %v", u)
	}
	if d.Forward.Stats.Drops-drops0 > 50 {
		t.Fatalf("PERT/PI dropped %d packets in steady state", d.Forward.Stats.Drops-drops0)
	}
}

func TestInitialCwndRespected(t *testing.T) {
	eng, d := testbed(t, 1, 10e6, 60*sim.Millisecond, 1, 1000)
	f := NewFlow(d.Net, d.Left[0], d.Right[0], 1, Reno{}, Config{InitialCwnd: 5})
	f.Start(0)
	eng.Run(20 * sim.Millisecond) // before any ACK returns
	if f.Conn.Stats.SegsSent != 4 {
		// MaxBurst (4) caps the initial blast below IW=5.
		t.Fatalf("initial burst = %d segments", f.Conn.Stats.SegsSent)
	}
}

func TestRTOBackoffSequence(t *testing.T) {
	// Black-hole the forward path after slow start begins: repeated RTOs
	// must back off exponentially and keep the connection alive.
	eng := sim.NewEngine(1)
	net := netem.NewNetwork(eng)
	blackhole := false
	a, b := net.AddNode(), net.AddNode()
	q := func() netem.Discipline { return &sinkTail{} }
	net.AddLink(a, b, 1e9, sim.Millisecond, dropFunc{q(), func(p *netem.Packet) bool { return blackhole && !p.IsAck }})
	net.AddLink(b, a, 1e9, sim.Millisecond, q())
	net.ComputeRoutes()
	f := NewFlow(net, a, b, 1, Reno{}, Config{})
	f.Start(0)
	eng.Run(sim.Second)
	blackhole = true
	eng.Run(30 * sim.Second)
	if f.Conn.Stats.RTOs < 3 {
		t.Fatalf("RTOs = %d, want several", f.Conn.Stats.RTOs)
	}
	if f.Conn.Cwnd() != 1 {
		t.Fatalf("cwnd = %v during blackhole", f.Conn.Cwnd())
	}
	// Heal the path: the flow must recover and make progress.
	blackhole = false
	got := f.Sink.UniqueSegs
	eng.Run(eng.Now() + 90*sim.Second)
	if f.Sink.UniqueSegs <= got {
		t.Fatal("no progress after the path healed")
	}
}

func TestVegasRTOResetsToSlowStart(t *testing.T) {
	eng := sim.NewEngine(2)
	net := netem.NewNetwork(eng)
	blackhole := false
	a, b := net.AddNode(), net.AddNode()
	q := func() netem.Discipline { return &sinkTail{} }
	net.AddLink(a, b, 1e9, sim.Millisecond, dropFunc{q(), func(p *netem.Packet) bool { return blackhole && !p.IsAck }})
	net.AddLink(b, a, 1e9, sim.Millisecond, q())
	net.ComputeRoutes()
	v := NewVegas()
	f := NewFlow(net, a, b, 1, v, Config{})
	f.Start(0)
	eng.Run(2 * sim.Second)
	blackhole = true
	eng.Run(eng.Now() + 5*sim.Second)
	blackhole = false
	eng.Run(eng.Now() + 20*sim.Second)
	if !v.slowStart && f.Conn.Cwnd() < 2 {
		t.Fatalf("Vegas stuck after RTO: ss=%v cwnd=%v", v.slowStart, f.Conn.Cwnd())
	}
	if f.Sink.UniqueSegs < 1000 {
		t.Fatalf("Vegas made little progress: %d segs", f.Sink.UniqueSegs)
	}
}
