package netem

import (
	"math/rand"
	"testing"

	"pert/internal/sim"
)

// schedChainRun drives the 4-node chain with a LinkSchedule applied before
// partitioning and returns delivery evidence. shards=1 never partitions (the
// serial baseline); shards=2 cuts at the b-c link, leaving a-b and b-c in
// domain 0 and c-d inside domain 1.
func schedChainRun(t *testing.T, shards int, sched LinkSchedule, on func(net *Network, nodes []*Node) *Link) (*countHandler, ImpairStats, Conservation) {
	t.Helper()
	g := sim.NewShardGroup(shards, 5)
	net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
	h := &countHandler{}
	nodes[3].AttachFlow(1, h)
	link := on(net, nodes)
	sched.Apply(link)
	if shards > 1 {
		if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	src := nodes[0]
	for i := 0; i < 120; i++ {
		i := i
		// Off-grid send times so no packet event ever ties with a schedule
		// change (tie order between engines is not part of the contract).
		src.Engine().Do(sim.Time(i)*sim.Millisecond+77*sim.Microsecond, func() {
			p := src.NewPacket()
			p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
			net.SendFrom(src, p)
		})
	}
	g.Run(sim.Second)
	if err := net.Audit(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return h, link.Impairments(), net.Conservation()
}

// flapSched halves capacity, restores it, and flaps the link down for 10 ms —
// the full repertoire a sharded schedule may use.
func flapSched() LinkSchedule {
	return LinkSchedule{
		{At: 20*sim.Millisecond + 300*sim.Microsecond, Capacity: 1e6},
		{At: 60*sim.Millisecond + 300*sim.Microsecond, Capacity: 8e6},
		{At: 80*sim.Millisecond + 300*sim.Microsecond, Down: true},
		{At: 90*sim.Millisecond + 300*sim.Microsecond, Up: true},
	}
}

// TestShardScheduleMigratesToOwningDomain: a schedule applied (pre-partition,
// on engine 0) to a link that lands inside domain 1 is re-armed on domain 1's
// engine, and the sharded run reproduces the serial run's deliveries,
// blackhole count, and ledger exactly.
func TestShardScheduleMigratesToOwningDomain(t *testing.T) {
	inner := func(net *Network, nodes []*Node) *Link { return nodes[2].LinkTo(nodes[3].ID) }
	sh, si, sc := schedChainRun(t, 1, flapSched(), inner)
	ph, pi, pc := schedChainRun(t, 2, flapSched(), inner)
	if si.Blackholed == 0 {
		t.Fatal("flap never fired: schedule test is vacuous")
	}
	if sh.n != ph.n || si != pi {
		t.Fatalf("serial delivered %d (impair %+v), sharded %d (%+v)", sh.n, si, ph.n, pi)
	}
	for i := range sh.at {
		if sh.at[i] != ph.at[i] {
			t.Fatalf("delivery %d at %v sharded vs %v serial", i, ph.at[i], sh.at[i])
		}
	}
	if sc.Delivered != pc.Delivered || sc.Dropped != pc.Dropped {
		t.Fatalf("ledgers differ: serial %+v sharded %+v", sc, pc)
	}
}

// TestShardScheduleOnBoundaryLink: capacity changes and flaps on the cut link
// itself are sender-side state and stay valid — and identical to serial.
func TestShardScheduleOnBoundaryLink(t *testing.T) {
	boundary := func(net *Network, nodes []*Node) *Link { return nodes[1].LinkTo(nodes[2].ID) }
	sh, si, _ := schedChainRun(t, 1, flapSched(), boundary)
	ph, pi, _ := schedChainRun(t, 2, flapSched(), boundary)
	if si.Blackholed == 0 {
		t.Fatal("flap never fired")
	}
	if sh.n != ph.n || si != pi {
		t.Fatalf("serial delivered %d (impair %+v), sharded %d (%+v)", sh.n, si, ph.n, pi)
	}
	for i := range sh.at {
		if sh.at[i] != ph.at[i] {
			t.Fatalf("delivery %d at %v sharded vs %v serial", i, ph.at[i], sh.at[i])
		}
	}
}

// TestShardScheduleDelayChangeRules: a delay change is fine on an internal
// link of any domain (its events migrate with the link) but rejected on a
// boundary link, whose lookahead was fixed when the ports were connected.
func TestShardScheduleDelayChangeRules(t *testing.T) {
	delaySched := LinkSchedule{{At: 30 * sim.Millisecond, Delay: 5 * sim.Millisecond}}

	inner := func(net *Network, nodes []*Node) *Link { return nodes[2].LinkTo(nodes[3].ID) }
	sh, _, _ := schedChainRun(t, 1, delaySched, inner)
	ph, _, _ := schedChainRun(t, 2, delaySched, inner)
	if sh.n != ph.n {
		t.Fatalf("internal delay change: serial delivered %d, sharded %d", sh.n, ph.n)
	}
	for i := range sh.at {
		if sh.at[i] != ph.at[i] {
			t.Fatalf("delivery %d at %v sharded vs %v serial", i, ph.at[i], sh.at[i])
		}
	}

	g := sim.NewShardGroup(2, 5)
	net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
	delaySched.Apply(nodes[1].LinkTo(nodes[2].ID))
	if err := net.Partition(g, []int{0, 0, 1, 1}); err == nil {
		t.Fatal("boundary delay schedule accepted by Partition")
	}
}

// markingQueue draws one RNG value per enqueue, recording the generator it
// drew from — a stand-in for RED/PI/REM marking randomness.
type markingQueue struct {
	tail
	rng  *rand.Rand
	from []*rand.Rand
}

func (m *markingQueue) Enqueue(p *Packet, now sim.Time) bool {
	m.rng.Float64()
	m.from = append(m.from, m.rng)
	return m.tail.Enqueue(p, now)
}

func (m *markingQueue) BindRand(rng *rand.Rand) { m.rng = rng }

// TestShardPartitionRebindsQueueRand: partitioning rebinds a RandBinder
// queue to its owning domain's engine — pointer-identical for domain 0 (the
// serial draw order survives) and engine 1's generator for domain 1.
func TestShardPartitionRebindsQueueRand(t *testing.T) {
	g := sim.NewShardGroup(2, 1)
	net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
	h := &countHandler{}
	nodes[3].AttachFlow(1, h)

	// Queues built the way compiled scenarios build them: from the global
	// (engine 0) RNG.
	q0 := &markingQueue{tail: tail{limit: 100}, rng: net.Engine().Rand()}
	q1 := &markingQueue{tail: tail{limit: 100}, rng: net.Engine().Rand()}
	nodes[0].LinkTo(nodes[1].ID).Queue = q0 // domain 0
	nodes[2].LinkTo(nodes[3].ID).Queue = q1 // domain 1

	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if q0.rng != g.Engine(0).Rand() {
		t.Fatal("domain-0 queue lost its serial generator")
	}
	if q1.rng != g.Engine(1).Rand() {
		t.Fatal("domain-1 queue not rebound to its owning engine")
	}

	src := nodes[0]
	for i := 0; i < 50; i++ {
		i := i
		src.Engine().Do(sim.Time(i)*sim.Millisecond, func() {
			p := src.NewPacket()
			p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
			net.SendFrom(src, p)
		})
	}
	g.Run(sim.Second)
	if h.n != 50 {
		t.Fatalf("delivered %d of 50", h.n)
	}
	// Every draw happened on the generator owned by the queue's domain —
	// the -race run of this test is the real assertion.
	for _, r := range q1.from {
		if r != g.Engine(1).Rand() {
			t.Fatal("domain-1 queue drew from a foreign generator mid-run")
		}
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}
