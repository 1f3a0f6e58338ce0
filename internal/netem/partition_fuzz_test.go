package netem

import (
	"testing"

	"pert/internal/sim"
)

// FuzzPartition throws arbitrary node→shard assignments at Network.Partition
// over a chain topology with a zero-delay middle link. The contract under
// fuzz: structurally invalid input (wrong length, out-of-range shard, a cut
// crossing the zero-lookahead link) returns an error — never a panic — and
// any assignment Partition accepts must carry traffic end to end, terminate
// (no cross-shard deadlock), and balance the conservation ledger.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1}, uint8(2))   // valid two-domain cut at c-d... (b-c is zero-delay: rejected)
	f.Add([]byte{0, 0, 0, 1}, uint8(2))   // valid cut at the 2 ms c-d link
	f.Add([]byte{0, 0, 0, 0}, uint8(4))   // all in one domain of a wider group
	f.Add([]byte{0, 1, 0, 1}, uint8(2))   // alternating: cuts every link
	f.Add([]byte{0, 0, 1}, uint8(2))      // wrong length
	f.Add([]byte{0, 0, 0, 255}, uint8(2)) // out of range (and negative as int8)
	f.Add([]byte{0, 0, 2, 3}, uint8(4))   // skips shard 1: empty domains are fine
	f.Fuzz(func(t *testing.T, data []byte, nShards uint8) {
		shards := int(nShards)%8 + 1
		g := sim.NewShardGroup(shards, 1)
		net := NewNetwork(g.Engine(0))
		var nodes []*Node
		for i := 0; i < 4; i++ {
			nodes = append(nodes, net.AddNode())
		}
		// a -1ms- b -0ms- c -2ms- d: the middle link has no lookahead, so
		// every assignment separating b from c must be rejected.
		delays := []sim.Duration{sim.Millisecond, 0, 2 * sim.Millisecond}
		for i := 0; i < 3; i++ {
			net.AddDuplexLink(nodes[i], nodes[i+1], 8e6, delays[i], &tail{limit: 100}, &tail{limit: 100})
		}
		net.ComputeRoutes()

		assign := make([]int, len(data))
		for i, b := range data {
			assign[i] = int(int8(b)) // sign-extend so negatives are covered
		}
		err := net.Partition(g, assign)

		if len(assign) != len(net.Nodes) {
			if err == nil {
				t.Fatalf("length-%d assignment accepted for %d nodes", len(assign), len(net.Nodes))
			}
			return
		}
		for id, s := range assign {
			if s < 0 || s >= g.N() {
				if err == nil {
					t.Fatalf("node %d assigned out-of-range shard %d accepted (group of %d)", id, s, g.N())
				}
				return
			}
		}
		if assign[1] != assign[2] {
			if err == nil {
				t.Fatal("cut across the zero-delay b-c link accepted: no lookahead exists")
			}
			return
		}
		if err != nil {
			t.Fatalf("structurally valid assignment %v rejected: %v", assign, err)
		}

		// Accepted: the partitioned network must still work. Drive a few
		// packets across the whole chain and check delivery and the ledger.
		h := &countHandler{}
		nodes[3].AttachFlow(1, h)
		src := nodes[0]
		for i := 0; i < 5; i++ {
			i := i
			src.Engine().Do(sim.Time(i)*sim.Millisecond, func() {
				p := src.NewPacket()
				p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
				net.SendFrom(src, p)
			})
		}
		g.Run(100 * sim.Millisecond)
		if h.n != 5 {
			t.Fatalf("assignment %v: delivered %d of 5", assign, h.n)
		}
		if err := net.Audit(); err != nil {
			t.Fatalf("assignment %v: %v", assign, err)
		}
	})
}
