package netem

import (
	"testing"

	"pert/internal/sim"
)

// flood pushes n packets of 1000 B into the link back to back and runs the
// engine to completion.
func flood(eng *sim.Engine, net *Network, a, b *Node, n int) *sink {
	s := &sink{}
	b.AttachFlow(1, s)
	for i := 0; i < n; i++ {
		net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID,
			Size: 1000, Seq: int64(i)})
	}
	eng.Run(10 * sim.Second)
	return s
}

func TestImpairmentZeroRatesAreInvisible(t *testing.T) {
	// A zero-probability impairment must leave the run bit-identical to an
	// unimpaired one: its RNG paths draw nothing.
	run := func(attach bool) []sim.Time {
		eng := sim.NewEngine(3)
		net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 50)
		if attach {
			ab.SetImpairment(NewImpairment(99))
		}
		return flood(eng, net, a, b, 20).at
	}
	plain, impaired := run(false), run(true)
	if len(plain) != len(impaired) {
		t.Fatalf("delivery counts differ: %d vs %d", len(plain), len(impaired))
	}
	for i := range plain {
		if plain[i] != impaired[i] {
			t.Fatalf("arrival %d: %v vs %v", i, plain[i], impaired[i])
		}
	}
}

func TestImpairmentLossDeterministic(t *testing.T) {
	run := func(seed int64) (int, ImpairStats) {
		eng := sim.NewEngine(3)
		net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 600)
		imp := NewImpairment(seed)
		imp.Loss = 0.2
		ab.SetImpairment(imp)
		s := flood(eng, net, a, b, 500)
		return len(s.got), ab.Impairments()
	}
	got1, st1 := run(7)
	got2, st2 := run(7)
	if got1 != got2 || st1 != st2 {
		t.Fatalf("same seed, different faults: %d/%+v vs %d/%+v", got1, st1, got2, st2)
	}
	if st1.WireLost == 0 || got1 == 500 {
		t.Fatalf("no loss injected: delivered=%d stats=%+v", got1, st1)
	}
	if got1+int(st1.WireLost) != 500 {
		t.Fatalf("delivered %d + lost %d != 500", got1, st1.WireLost)
	}
	got3, _ := run(8)
	if got3 == got1 {
		t.Logf("note: different seeds gave equal delivery counts (possible, just unlikely)")
	}
}

func TestImpairmentDuplication(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 300)
	imp := NewImpairment(1)
	imp.Dup = 1 // every packet echoes
	ab.SetImpairment(imp)
	s := flood(eng, net, a, b, 50)
	if len(s.got) != 100 {
		t.Fatalf("delivered %d, want 100 (every packet twice)", len(s.got))
	}
	if st := ab.Impairments(); st.Duplicated != 50 {
		t.Fatalf("stats: %+v", st)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("conservation with duplicates: %v", err)
	}
	c := net.Conservation()
	if c.Injected != 50 || c.Duplicated != 50 || c.Delivered != 100 {
		t.Fatalf("ledger: %+v", c)
	}
}

func TestImpairmentReorderOvertakes(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 300)
	imp := NewImpairment(1)
	imp.Reorder = 0.3
	imp.ReorderMax = 20 * sim.Millisecond
	ab.SetImpairment(imp)
	s := flood(eng, net, a, b, 200)
	if len(s.got) != 200 {
		t.Fatalf("delivered %d, want 200 (reordering must not lose packets)", len(s.got))
	}
	if st := ab.Impairments(); st.Reordered == 0 {
		t.Fatalf("stats: %+v", st)
	}
	overtaken := false
	for i := 1; i < len(s.got); i++ {
		if s.got[i].Seq < s.got[i-1].Seq {
			overtaken = true
			break
		}
	}
	if !overtaken {
		t.Fatal("no packet was overtaken despite 30% reorder probability")
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("conservation after reordering: %v", err)
	}
}

func TestImpairmentReorderNeedsBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reorder without ReorderMax accepted")
		}
	}()
	eng := sim.NewEngine(1)
	_, _, _, ab := line(eng, 8e6, 0, 10)
	imp := NewImpairment(1)
	imp.Reorder = 0.5
	ab.SetImpairment(imp)
}

func TestDownLinkBlackholesOfferedPackets(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 50)
	ab.SetUp(false)
	if ab.Up() {
		t.Fatal("link still up")
	}
	s := flood(eng, net, a, b, 10)
	if len(s.got) != 0 {
		t.Fatalf("down link delivered %d packets", len(s.got))
	}
	if st := ab.Impairments(); st.Blackholed != 10 {
		t.Fatalf("stats: %+v", st)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("conservation across blackhole: %v", err)
	}
	// Revive and verify traffic flows again.
	ab.SetUp(true)
	net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
	eng.Run(20 * sim.Second)
	if len(s.got) != 1 {
		t.Fatalf("revived link delivered %d packets", len(s.got))
	}
}

func TestDownLinkLosesPacketInTransmission(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 10*sim.Millisecond, 50) // 1 ms tx time
	s := &sink{}
	b.AttachFlow(1, s)
	net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
	// Kill the carrier halfway through serialization: the bits go nowhere.
	eng.Do(500*sim.Microsecond, func() { ab.SetUp(false) })
	eng.Run(sim.Second)
	if len(s.got) != 0 {
		t.Fatal("packet survived a mid-transmission link failure")
	}
	if st := ab.Impairments(); st.Blackholed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := net.Audit(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestDownLinkDoesNotKillPropagatingPacket(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 10*sim.Millisecond, 50)
	s := &sink{}
	b.AttachFlow(1, s)
	net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
	// Transmission finishes at 1 ms; the packet is then on the wire until
	// 11 ms. A flap at 5 ms must not destroy it.
	eng.Do(5*sim.Millisecond, func() { ab.SetUp(false) })
	eng.Run(sim.Second)
	if len(s.got) != 1 {
		t.Fatal("propagating packet was retroactively destroyed by a flap")
	}
}

func TestLinkScheduleDrivesCapacityDelayAndFlaps(t *testing.T) {
	eng := sim.NewEngine(3)
	_, _, _, ab := line(eng, 8e6, 10*sim.Millisecond, 50)
	LinkSchedule{
		{At: 10 * sim.Millisecond, Capacity: 16e6},
		{At: 20 * sim.Millisecond, Delay: 30 * sim.Millisecond},
		{At: 30 * sim.Millisecond, Down: true},
		{At: 40 * sim.Millisecond, Up: true},
	}.Apply(ab)

	type state struct {
		cap   float64
		delay sim.Duration
		up    bool
	}
	probe := map[sim.Time]state{}
	for _, at := range []sim.Time{5, 15, 25, 35, 45} {
		at := at * sim.Millisecond
		eng.Do(at, func() { probe[at] = state{ab.Capacity, ab.Delay, ab.Up()} })
	}
	eng.Run(sim.Second)

	want := map[sim.Time]state{
		5 * sim.Millisecond:  {8e6, 10 * sim.Millisecond, true},
		15 * sim.Millisecond: {16e6, 10 * sim.Millisecond, true},
		25 * sim.Millisecond: {16e6, 30 * sim.Millisecond, true},
		35 * sim.Millisecond: {16e6, 30 * sim.Millisecond, false},
		45 * sim.Millisecond: {16e6, 30 * sim.Millisecond, true},
	}
	for at, w := range want {
		if probe[at] != w {
			t.Errorf("at %v: %+v, want %+v", at, probe[at], w)
		}
	}
}

func TestLinkScheduleRejectsContradictions(t *testing.T) {
	eng := sim.NewEngine(1)
	_, _, _, ab := line(eng, 8e6, 0, 10)
	for name, sched := range map[string]LinkSchedule{
		"down and up":       {{At: 0, Down: true, Up: true}},
		"negative capacity": {{At: 0, Capacity: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			sched.Apply(ab)
		}()
	}
}
