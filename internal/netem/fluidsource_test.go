package netem

import (
	"strings"
	"testing"

	"pert/internal/sim"
)

// fluidLine builds a one-way line with a fluid aggregate on the forward link:
// 50 modeled flows at a 100 ms RTT over an 8 Mbps link (1000 pkt/s at
// 1000 B). W* = 2 keeps the Theorem 1 LHS at 0.2 (comfortably stable) and
// the equilibrium queue deep: p* = 0.5, Tq* = 50ms + 0.5/2 = 300 ms, so the
// modeled backlog settles near 300 packets.
func fluidLine(t *testing.T, buffer int) (*sim.Engine, *Network, *Node, *Node, *Link, *FluidSource) {
	t.Helper()
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 1<<20)
	fs, err := AttachFluid(ab, FluidConfig{
		Flows: 50, RTT: 0.1, PktSize: 1000,
		Tmin: 0.05, Tmax: 0.1, Pmax: 0.1,
		Alpha: 0.99, Delta: 1e-4,
		BufferPkts: buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, net, a, b, ab, fs
}

func TestFluidSourceBuildsBacklog(t *testing.T) {
	eng, _, _, _, ab, fs := fluidLine(t, 0)
	eng.Run(30 * sim.Second)
	// W* = RC/N = 2 pkts, p* = 2/W*² = 0.5, Tq* = 50ms + 0.5/2 = 300 ms:
	// the modeled backlog settles near Tq*·C = 300 packets.
	if got := fs.Backlog(); got < 240 || got > 360 {
		t.Fatalf("modeled backlog = %v pkts, want near 300", got)
	}
	if qp := ab.QueuePkts(); qp != fs.Backlog() {
		t.Fatalf("QueuePkts = %v with an empty packet queue, want the fluid backlog %v", qp, fs.Backlog())
	}
	if r := fs.Rate(); r < 800 || r > 1200 {
		t.Fatalf("modeled rate = %v pkt/s, want near capacity 1000", r)
	}
	if p := fs.Prob(); p < 0.4 || p > 0.6 {
		t.Fatalf("response probability = %v, want near p* = 0.5", p)
	}
}

func TestFluidDelaysRealPackets(t *testing.T) {
	// The same probe packet sent at t=30s arrives later when a fluid
	// aggregate occupies the queue, by roughly backlog/C seconds.
	arrival := func(withFluid bool) (sim.Time, float64) {
		eng := sim.NewEngine(3)
		net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 1<<20)
		var fs *FluidSource
		if withFluid {
			var err error
			fs, err = AttachFluid(ab, FluidConfig{
				Flows: 50, RTT: 0.1, PktSize: 1000,
				Tmin: 0.05, Tmax: 0.1, Pmax: 0.1,
				Alpha: 0.99, Delta: 1e-4,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		s := &sink{}
		b.AttachFlow(1, s)
		eng.Run(30 * sim.Second)
		var backlog float64
		if fs != nil {
			backlog = fs.Backlog() // at send time, before further drift
		}
		net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
		eng.Run(40 * sim.Second)
		if len(s.at) != 1 {
			t.Fatalf("delivered %d packets", len(s.at))
		}
		return s.at[0], backlog
	}
	plain, _ := arrival(false)
	inflated, backlog := arrival(true)
	extra := (inflated - plain).Seconds()
	want := backlog / 1000 // C = 1000 pkt/s
	if extra < 0.8*want || extra > 1.2*want {
		t.Fatalf("fluid added %vs of delay, want ~backlog/C = %vs (backlog %v pkts)", extra, want, backlog)
	}
}

func TestFluidSharedBufferOverflow(t *testing.T) {
	// A buffer smaller than the fluid equilibrium backlog leaves no room
	// for real packets: once the aggregate fills it, every arrival drops.
	eng, net, a, b, ab, fs := fluidLine(t, 150) // equilibrium backlog ≈ 300 > 150
	s := &sink{}
	b.AttachFlow(1, s)
	eng.Run(30 * sim.Second)
	if fs.Backlog() < 150 {
		t.Fatalf("aggregate did not fill the buffer: backlog %v", fs.Backlog())
	}
	drops := ab.Stats.Drops
	for i := 0; i < 10; i++ {
		net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000, Seq: int64(i)})
	}
	eng.Run(31 * sim.Second)
	if got := ab.Stats.Drops - drops; got != 10 {
		t.Fatalf("%d of 10 packets dropped at the full shared buffer, want all", got)
	}
	if len(s.got) != 0 {
		t.Fatalf("%d packets slipped past the full shared buffer", len(s.got))
	}
}

func TestFluidAttachErrors(t *testing.T) {
	eng := sim.NewEngine(3)
	_, _, _, ab := line(eng, 8e6, 5*sim.Millisecond, 100)
	if _, err := AttachFluid(ab, FluidConfig{Flows: 0, RTT: 0.1}); err == nil {
		t.Fatal("zero flows accepted")
	}
	if _, err := AttachFluid(ab, FluidConfig{Flows: 10, RTT: 0}); err == nil {
		t.Fatal("RTT below the integration step accepted")
	}
	if _, err := AttachFluid(ab, FluidConfig{Flows: 10, RTT: 0.1}); err != nil {
		t.Fatalf("valid attach rejected: %v", err)
	}
	if _, err := AttachFluid(ab, FluidConfig{Flows: 10, RTT: 0.1}); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestPartitionRejectsFluidSources(t *testing.T) {
	g := sim.NewShardGroup(2, 3)
	eng := g.Engine(0)
	net, _, _, ab := line(eng, 8e6, 5*sim.Millisecond, 100)
	if _, err := AttachFluid(ab, FluidConfig{Flows: 1000, RTT: 0.1}); err != nil {
		t.Fatal(err)
	}
	err := net.Partition(g, []int{0, 1})
	if err == nil {
		t.Fatal("partition with a fluid source succeeded; hybrid is serial-only")
	}
	if !strings.Contains(err.Error(), "serial-only") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}
