package netem

import (
	"math/rand"
	"testing"

	"pert/internal/sim"
)

// buildChain makes a 4-node chain a-b-c-d with duplex links, suitable for
// cutting into two domains at the b-c link.
func buildChain(eng *sim.Engine, delay sim.Duration) (*Network, []*Node) {
	net := NewNetwork(eng)
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddNode())
	}
	for i := 0; i < 3; i++ {
		net.AddDuplexLink(nodes[i], nodes[i+1], 8e6, delay, &tail{limit: 100}, &tail{limit: 100})
	}
	net.ComputeRoutes()
	return net, nodes
}

type countHandler struct {
	n   int
	at  []sim.Time
	ids []uint64
}

func (h *countHandler) Receive(p *Packet, now sim.Time) {
	h.n++
	h.at = append(h.at, now)
	h.ids = append(h.ids, p.ID)
}

// TestPartitionCrossDelivery: packets routed across a partition cut arrive
// with the same timing a serial run produces, and the summed conservation
// ledger balances after the run.
func TestPartitionCrossDelivery(t *testing.T) {
	const delay = 5 * sim.Millisecond
	run := func(shards int) (*countHandler, Conservation) {
		g := sim.NewShardGroup(shards, 1)
		net, nodes := buildChain(g.Engine(0), delay)
		h := &countHandler{}
		nodes[3].AttachFlow(1, h)
		if shards > 1 {
			if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
				t.Fatal(err)
			}
		}
		src := nodes[0]
		for i := 0; i < 20; i++ {
			i := i
			src.Engine().Do(sim.Time(i)*sim.Millisecond, func() {
				p := src.NewPacket()
				p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
				net.SendFrom(src, p)
			})
		}
		g.Run(sim.Second)
		if err := net.Audit(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return h, net.Conservation()
	}

	serial, cs := run(1)
	sharded, cp := run(2)
	if serial.n != 20 || sharded.n != serial.n {
		t.Fatalf("deliveries: serial=%d sharded=%d", serial.n, sharded.n)
	}
	for i := range serial.at {
		if serial.at[i] != sharded.at[i] {
			t.Fatalf("delivery %d at %v sharded vs %v serial", i, sharded.at[i], serial.at[i])
		}
	}
	if cs.Delivered != cp.Delivered || cs.Injected != cp.Injected || cs.Dropped != cp.Dropped {
		t.Fatalf("ledgers differ: serial %+v, sharded %+v", cs, cp)
	}
	if cp.Queued != 0 || cp.Transmitting != 0 || cp.InFlight != 0 {
		t.Fatalf("sharded run left packets in flight: %+v", cp)
	}
}

// TestPartitionPacketIDsDisjoint: packets minted by different domains can
// never collide, and domain 0 mints the exact IDs a serial network does.
func TestPartitionPacketIDsDisjoint(t *testing.T) {
	g := sim.NewShardGroup(2, 1)
	net, nodes := buildChain(g.Engine(0), sim.Millisecond)
	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	p0 := nodes[0].NewPacket()
	p1 := nodes[3].NewPacket()
	if p0.ID != 1 {
		t.Fatalf("domain 0 first ID = %d, want 1 (serial-identical)", p0.ID)
	}
	if p1.ID != uint64(1)<<domainPktShift|1 {
		t.Fatalf("domain 1 first ID = %#x", p1.ID)
	}
	if nodes[0].Domain() != 0 || nodes[2].Domain() != 1 {
		t.Fatalf("domains = %d, %d", nodes[0].Domain(), nodes[2].Domain())
	}
}

// TestPartitionImpairedBoundary: wire loss, duplication, and reorder on a
// boundary link keep the summed ledger balanced and stay deterministic
// across repeated sharded runs.
func TestPartitionImpairedBoundary(t *testing.T) {
	run := func() (Conservation, ImpairStats) {
		g := sim.NewShardGroup(2, 3)
		net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
		h := &countHandler{}
		nodes[3].AttachFlow(1, h)
		if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
			t.Fatal(err)
		}
		bc := nodes[1].LinkTo(nodes[2].ID)
		if bc.xport == nil {
			t.Fatal("b->c is not a boundary link")
		}
		imp := NewImpairment(7)
		imp.Loss, imp.Dup, imp.Reorder, imp.ReorderMax = 0.1, 0.1, 0.2, sim.Millisecond
		bc.SetImpairment(imp)
		src := nodes[0]
		for i := 0; i < 200; i++ {
			i := i
			src.Engine().Do(sim.Time(i)*sim.Millisecond, func() {
				p := src.NewPacket()
				p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
				net.SendFrom(src, p)
			})
		}
		g.Run(sim.Second)
		if err := net.Audit(); err != nil {
			t.Fatal(err)
		}
		return net.Conservation(), bc.Impairments()
	}
	c1, s1 := run()
	c2, s2 := run()
	if s1.WireLost == 0 || s1.Duplicated == 0 || s1.Reordered == 0 {
		t.Fatalf("impairments never fired: %+v", s1)
	}
	if c1 != c2 || s1 != s2 {
		t.Fatalf("sharded impaired run not deterministic:\n%+v vs %+v\n%+v vs %+v", c1, c2, s1, s2)
	}
}

// TestPartitionValidation: the partitioner rejects malformed assignments.
func TestPartitionValidation(t *testing.T) {
	mk := func() (*sim.ShardGroup, *Network) {
		g := sim.NewShardGroup(2, 1)
		net, _ := buildChain(g.Engine(0), sim.Millisecond)
		return g, net
	}
	if g, net := mk(); net.Partition(g, []int{0, 0, 1}) == nil {
		t.Error("wrong assignment length accepted")
	}
	if g, net := mk(); net.Partition(g, []int{0, 0, 1, 2}) == nil {
		t.Error("out-of-range shard accepted")
	}
	g, net := mk()
	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if net.Partition(g, []int{0, 0, 1, 1}) == nil {
		t.Error("double partition accepted")
	}
	// Zero-delay boundary: no conservative lookahead exists.
	g2 := sim.NewShardGroup(2, 1)
	net2, _ := buildChain(g2.Engine(0), 0)
	if net2.Partition(g2, []int{0, 0, 1, 1}) == nil {
		t.Error("zero-delay boundary accepted")
	}
	// The same zero-delay links entirely inside one domain are fine.
	if err := net2.Partition(g2, []int{0, 0, 0, 0}); err != nil {
		t.Errorf("all-in-one-domain partition rejected: %v", err)
	}
}

// TestPartitionRebindsLanes: Partition re-creates every link's arrival lane
// on the link's owning engine, as it does the transmit timer. With packets
// propagating down c->d, a link wholly inside domain 1, engine 1 must be
// holding them chained behind one lane key — more pending events than heap
// keys — and engine 0 must hold nothing of that link's.
func TestPartitionRebindsLanes(t *testing.T) {
	g := sim.NewShardGroup(2, 1)
	net, nodes := buildChain(g.Engine(0), 5*sim.Millisecond)
	h := &countHandler{}
	nodes[3].AttachFlow(1, h)
	// A link staying in domain 0 is left exactly as built: same transmit
	// timer, and its queue keeps the generator it was constructed with even
	// when that is not engine 0's.
	stay, move := nodes[0].LinkTo(nodes[1].ID), nodes[2].LinkTo(nodes[3].ID)
	own := rand.New(rand.NewSource(7))
	q := &markingQueue{tail: tail{limit: 100}, rng: own}
	stay.Queue = q
	stayTx, moveTx := stay.txDone, move.txDone
	before := g.Engine(0).QueueStats()
	if err := net.Partition(g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if after := g.Engine(0).QueueStats(); after != before {
		t.Fatalf("Partition touched engine 0's pending set: %+v -> %+v", before, after)
	}
	if stay.txDone != stayTx || q.rng != own {
		t.Fatal("Partition rebound a link that stayed in domain 0")
	}
	if move.txDone == moveTx {
		t.Fatal("Partition left a domain-1 link's transmit timer on engine 0")
	}
	src := nodes[0]
	for i := 0; i < 20; i++ {
		p := src.NewPacket()
		p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
		net.SendFrom(src, p)
	}
	// 1 ms per transmission, 5 ms per hop: at 20 ms the burst's head has
	// reached d and five packets are on the c->d wire.
	g.Run(20 * sim.Millisecond)
	e1 := g.Engine(1)
	if chained := e1.Pending() - e1.QueueStats().HeapLen; chained < 3 {
		t.Fatalf("engine 1 has %d pending events under %d keys: c->d's arrivals are not on its lane",
			e1.Pending(), e1.QueueStats().HeapLen)
	}
	g.Run(sim.Second)
	if h.n != 20 {
		t.Fatalf("delivered %d of 20", h.n)
	}
	for i := 0; i < 2; i++ {
		if qs := g.Engine(i).QueueStats(); qs.LaneFallbacks != 0 {
			t.Fatalf("engine %d: %d lane fallbacks on FIFO links", i, qs.LaneFallbacks)
		}
	}
	if err := net.Audit(); err != nil {
		t.Fatal(err)
	}
}
