package netem

import (
	"testing"

	"pert/internal/obs"
	"pert/internal/sim"
)

// ring is an allocation-free DropTail over a fixed circular buffer, so the
// alloc-budget test below measures the netem loop itself rather than the
// queue discipline's storage management.
type ring struct {
	buf     [128]*Packet
	head, n int
	bytes   int
}

func (r *ring) Enqueue(p *Packet, _ sim.Time) bool {
	if r.n == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
	r.bytes += p.Size
	return true
}

func (r *ring) Dequeue(_ sim.Time) *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.bytes -= p.Size
	return p
}

func (r *ring) Len() int   { return r.n }
func (r *ring) Bytes() int { return r.bytes }

// saturatedLink builds a two-node network whose single link is kept busy by
// a self-refilling source: every departure injects a replacement packet, so
// the link transmits back to back for as long as the simulation runs. This
// is the netem hot path — enqueue, transmit, deliver, receive, recycle —
// with no TCP machinery on top.
func saturatedLink(seed int64) (*sim.Engine, *Network, *Link) {
	eng := sim.NewEngine(seed)
	net := NewNetwork(eng)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 80e6, sim.Millisecond, &ring{})
	net.ComputeRoutes()
	b.AttachFlow(1, nopHandler{})

	inject := func() {
		p := net.NewPacket()
		p.Flow = 1
		p.Src = a.ID
		p.Dst = b.ID
		p.Size = 1000
		net.SendFrom(a, p)
	}
	l.OnDepart = func(*Packet, sim.Time) { inject() }
	for i := 0; i < 32; i++ {
		inject()
	}
	return eng, net, l
}

type nopHandler struct{}

func (nopHandler) Receive(*Packet, sim.Time) {}

// BenchmarkSaturatedLink reports the per-simulated-second cost of a fully
// loaded link: 80 Mb/s of 1000-byte packets is 10k transmissions (and 10k
// deliveries) per simulated second.
func BenchmarkSaturatedLink(b *testing.B) {
	eng, _, _ := saturatedLink(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + sim.Second)
	}
}

// TestLinkAllocBudget asserts the warmed transmit loop allocates nothing:
// after the packet pool, the event heap and the engine's slab reach steady
// state, a simulated second of back-to-back transmissions (~20k events) must
// do zero heap allocations. This pins down the tentpole properties — pooled
// packets, persistent transmit timer, arrivals chained through the link's
// lane — as a test rather than a benchmark delta. The impaired variant adds
// jitter, duplicates (through the lane) and reordered packets (around it,
// as ordinary handle-free events).
func TestLinkAllocBudget(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		eng, _, _ := saturatedLink(1)
		assertWarmLinkZeroAllocs(t, eng)
		// Ten packets are propagating at any instant; the heap must hold
		// the link's two sources (transmit timer, lane head), not them.
		if qs := eng.QueueStats(); qs.HeapLen > 2 || qs.LaneFallbacks != 0 {
			t.Errorf("saturated link's arrivals are not riding its lane: %+v", qs)
		}
	})
	t.Run("impaired", func(t *testing.T) {
		eng, _, l := saturatedLink(1)
		l.JitterMax = 2 * sim.Millisecond
		imp := NewImpairment(3)
		imp.Dup, imp.Reorder, imp.ReorderMax = 0.1, 0.1, 4*sim.Millisecond
		l.SetImpairment(imp)
		assertWarmLinkZeroAllocs(t, eng)
		if st := l.Impairments(); st.Duplicated == 0 || st.Reordered == 0 {
			t.Errorf("impaired link injected no faults: %+v", st)
		}
		if qs := eng.QueueStats(); qs.LaneFallbacks != 0 {
			t.Errorf("floor-respecting deliveries fell out of the lane: %+v", qs)
		}
	})
}

func assertWarmLinkZeroAllocs(t *testing.T, eng *sim.Engine) {
	t.Helper()
	eng.Run(sim.Second) // warm pools, heap, slab and free lists
	allocs := testing.AllocsPerRun(5, func() {
		eng.Run(eng.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("saturated link allocates %.1f per simulated second, budget is 0", allocs)
	}
}

// TestPacketPoolRecycling exercises the free list directly: a released
// packet must come back from NewPacket zeroed, with a fresh ID, and a
// double release must panic rather than alias two live packets.
func TestPacketPoolRecycling(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)

	p := net.NewPacket()
	p.Flow = 7
	p.Seq = 42
	p.ResetSack()
	p.Sack = append(p.Sack, SackBlock{Start: 1, End: 2})
	id := p.ID
	net.ReleasePacket(p)

	q := net.NewPacket()
	if q != p {
		t.Fatal("released packet was not recycled")
	}
	if q.ID == id {
		t.Fatal("recycled packet kept its old ID")
	}
	if q.Flow != 0 || q.Seq != 0 || q.Sack != nil {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}

	// Foreign packets (built by hand, e.g. in tests) are never pooled.
	foreign := &Packet{ID: net.NewPacketID()}
	net.ReleasePacket(foreign)
	if got := net.NewPacket(); got == foreign {
		t.Fatal("foreign packet entered the pool")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	net.ReleasePacket(q)
	net.ReleasePacket(q)
}

// TestInlineSackAliasing guards the packet pool against the subtle clone
// bug: copying a Packet by value copies its inline SACK backing array, so a
// clone's Sack slice must be re-pointed at its own array or the two packets
// would share (and corrupt) SACK state.
func TestInlineSackAliasing(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNetwork(eng)

	p := net.NewPacket()
	p.ResetSack()
	p.Sack = append(p.Sack, SackBlock{Start: 10, End: 12}, SackBlock{Start: 20, End: 21})

	cp := net.doms[0].clonePacket(p)
	if cp.ID != p.ID {
		t.Fatal("clone must keep the original's ID (wire duplication)")
	}
	if len(cp.Sack) != 2 || cp.Sack[0] != p.Sack[0] {
		t.Fatalf("clone SACK = %v", cp.Sack)
	}
	if &cp.Sack[0] == &p.Sack[0] {
		t.Fatal("clone's SACK aliases the original's backing array")
	}
	cp.Sack[0].Start = 99
	if p.Sack[0].Start != 10 {
		t.Fatal("writing the clone's SACK corrupted the original")
	}
}

// TestLinkAllocBudgetDisabledMetrics extends the zero-alloc budget to the
// disabled-metrics path: nil obs instruments wired into every per-packet hook
// of the saturated link — exactly what instrumented model code costs when no
// registry is attached — must keep the warmed transmit loop at zero
// allocations.
func TestLinkAllocBudgetDisabledMetrics(t *testing.T) {
	eng, _, l := saturatedLink(1)
	var pkts *obs.Counter  // nil: metrics disabled
	var lastLen *obs.Gauge // nil
	var h *obs.Histogram   // nil
	prev := l.OnDepart
	l.OnDepart = func(p *Packet, now sim.Time) {
		pkts.Inc()
		pkts.Add(uint64(p.Size))
		lastLen.Set(float64(l.Queue.Len()))
		h.Observe(now.Seconds())
		if prev != nil {
			prev(p, now)
		}
	}
	l.Instrument(nil, "queue") // nil registry: must be a no-op
	eng.Run(sim.Second)        // warm pools, heap, and free lists
	allocs := testing.AllocsPerRun(5, func() {
		eng.Run(eng.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("saturated link with disabled metrics allocates %.1f per simulated second, budget is 0", allocs)
	}
	if pkts.Value() != 0 || lastLen.Value() != 0 || h.Count() != 0 {
		t.Errorf("nil instruments accumulated state")
	}
}
