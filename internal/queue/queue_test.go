package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pert/internal/netem"
	"pert/internal/sim"
)

func pkt(size int) *netem.Packet { return &netem.Packet{Size: size} }

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(3)
	for i := 0; i < 3; i++ {
		p := pkt(100)
		p.Seq = int64(i)
		if !q.Enqueue(p, 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Enqueue(pkt(100), 0) {
		t.Fatal("enqueue beyond limit accepted")
	}
	if q.Len() != 3 || q.Bytes() != 300 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	for i := 0; i < 3; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d got %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("dequeue from empty queue returned a packet")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("empty queue len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestDropTailRefillAfterDrain(t *testing.T) {
	q := NewDropTail(2)
	for round := 0; round < 200; round++ {
		if !q.Enqueue(pkt(10), 0) || !q.Enqueue(pkt(10), 0) {
			t.Fatalf("round %d: enqueue rejected below limit", round)
		}
		q.Dequeue(0)
		q.Dequeue(0)
	}
	if q.Len() != 0 {
		t.Fatalf("len=%d after drain", q.Len())
	}

	// A queue that drains rewinds to its first slot, so refills after any
	// number of drains fit in the capacity of its high-water mark.
	q = NewDropTail(5)
	for i := 0; i < 5; i++ {
		q.Enqueue(pkt(10), 0)
	}
	for q.Dequeue(0) != nil {
	}
	hw := cap(q.q.pkts)
	for round := 0; round < 200; round++ {
		for i := 0; i <= round%5; i++ {
			q.Enqueue(pkt(10), 0)
		}
		for q.Dequeue(0) != nil {
		}
		if c := cap(q.q.pkts); c != hw || q.q.head != 0 {
			t.Fatalf("round %d: capacity %d (high-water %d), head %d after drain", round, c, hw, q.q.head)
		}
	}
}

// Property: for any interleaving of enqueues and dequeues, DropTail preserves
// FIFO order, never exceeds its limit, and Bytes always equals the sum of
// queued packet sizes.
func TestDropTailProperty(t *testing.T) {
	f := func(ops []bool, limit8 uint8) bool {
		limit := int(limit8%16) + 1
		q := NewDropTail(limit)
		var model []*netem.Packet
		seq := int64(0)
		for _, enq := range ops {
			if enq {
				p := pkt(int(seq%500) + 40)
				p.Seq = seq
				seq++
				ok := q.Enqueue(p, 0)
				if ok != (len(model) < limit) {
					return false
				}
				if ok {
					model = append(model, p)
				}
			} else {
				p := q.Dequeue(0)
				if len(model) == 0 {
					if p != nil {
						return false
					}
				} else {
					if p != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			wantBytes := 0
			for _, m := range model {
				wantBytes += m.Size
			}
			if q.Len() != len(model) || q.Bytes() != wantBytes {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestREDDefaults(t *testing.T) {
	r := NewRED(REDConfig{Limit: 120}, rand.New(rand.NewSource(1)))
	c := r.Config()
	if c.MinTh <= 0 || c.MaxTh <= c.MinTh || c.MaxP <= 0 || c.Wq <= 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
	if c.MaxTh > float64(c.Limit) {
		t.Fatalf("MaxTh %v beyond limit %d", c.MaxTh, c.Limit)
	}
}

func TestREDBelowMinThNeverDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(REDConfig{Limit: 100, MinTh: 20, MaxTh: 60, MaxP: 0.1, Wq: 0.5}, rng)
	// Keep the instantaneous queue at <= 2 packets: avg stays below MinTh.
	for i := 0; i < 1000; i++ {
		if !r.Enqueue(pkt(1000), sim.Time(i)*sim.Millisecond) {
			t.Fatalf("drop below MinTh at %d (avg=%v)", i, r.AvgQueue())
		}
		if r.Len() > 2 {
			r.Dequeue(sim.Time(i) * sim.Millisecond)
			r.Dequeue(sim.Time(i) * sim.Millisecond)
		}
	}
	if r.EarlyDrops != 0 || r.ForcedDrops != 0 {
		t.Fatalf("drops below MinTh: early=%d forced=%d", r.EarlyDrops, r.ForcedDrops)
	}
}

func TestREDMarksUnderSustainedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(REDConfig{Limit: 200, MinTh: 10, MaxTh: 30, MaxP: 0.1, Wq: 0.2, Gentle: true}, rng)
	drops := 0
	for i := 0; i < 5000; i++ {
		if !r.Enqueue(pkt(1000), sim.Time(i)*sim.Microsecond) {
			drops++
		}
		// Serve slower than arrivals so the queue builds.
		if i%3 == 0 {
			r.Dequeue(sim.Time(i) * sim.Microsecond)
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped under sustained overload")
	}
	if r.EarlyDrops == 0 {
		t.Fatal("RED never dropped early (probabilistically)")
	}
}

func TestREDECNMarksInsteadOfDropping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(REDConfig{Limit: 1000, MinTh: 5, MaxTh: 15, MaxP: 0.2, Wq: 0.5, Gentle: true, ECN: true}, rng)
	marks := 0
	for i := 0; i < 2000; i++ {
		p := pkt(1000)
		p.ECT = true
		before := p.CE
		ok := r.Enqueue(p, sim.Time(i)*sim.Microsecond)
		if ok && p.CE && !before {
			marks++
		}
		if i%2 == 0 {
			r.Dequeue(sim.Time(i) * sim.Microsecond)
		}
	}
	if marks == 0 {
		t.Fatal("ECN-capable packets never marked")
	}
	if r.EarlyDrops != 0 {
		t.Fatalf("ECN-capable packets dropped early %d times while avg below gentle ceiling", r.EarlyDrops)
	}
}

func TestREDNonECTDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(REDConfig{Limit: 1000, MinTh: 5, MaxTh: 15, MaxP: 0.2, Wq: 0.5, Gentle: true, ECN: true}, rng)
	for i := 0; i < 2000; i++ {
		r.Enqueue(pkt(1000), sim.Time(i)*sim.Microsecond) // ECT=false
		if i%2 == 0 {
			r.Dequeue(sim.Time(i) * sim.Microsecond)
		}
	}
	if r.EarlyDrops == 0 {
		t.Fatal("non-ECT packets never early-dropped by ECN-enabled RED")
	}
	if r.ECNMarks != 0 {
		t.Fatal("non-ECT packets were CE-marked")
	}
}

func TestREDIdleDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(REDConfig{Limit: 100, MinTh: 10, MaxTh: 30, Wq: 0.2, CapacityPPS: 1000}, rng)
	for i := 0; i < 50; i++ {
		r.Enqueue(pkt(1000), 0)
	}
	high := r.AvgQueue()
	for r.Len() > 0 {
		r.Dequeue(sim.Millisecond)
	}
	// After a long idle period the next arrival sees a decayed average.
	r.Enqueue(pkt(1000), 2*sim.Second)
	if r.AvgQueue() >= high/10 {
		t.Fatalf("avg did not decay over idle: before=%v after=%v", high, r.AvgQueue())
	}
}

func TestREDHardLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED(REDConfig{Limit: 10, MinTh: 100, MaxTh: 300, Wq: 0.001}, rng)
	accepted := 0
	for i := 0; i < 100; i++ {
		if r.Enqueue(pkt(1000), 0) {
			accepted++
		}
	}
	if accepted != 10 {
		t.Fatalf("accepted %d, want hard limit 10", accepted)
	}
}

// Property: RED's average-queue estimate is always within [0, Limit] and the
// queue never exceeds its hard limit, for arbitrary arrival/service patterns.
func TestREDInvariantsProperty(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRED(REDConfig{Limit: 50, MinTh: 5, MaxTh: 20, MaxP: 0.1, Wq: 0.1, Gentle: true}, rng)
		now := sim.Time(0)
		for _, enq := range ops {
			now += sim.Microsecond
			if enq {
				r.Enqueue(pkt(1000), now)
			} else {
				r.Dequeue(now)
			}
			if r.Len() > 50 || r.Len() < 0 {
				return false
			}
			if r.AvgQueue() < 0 || r.AvgQueue() > 50+1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveREDAdaptsMaxPUp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAdaptiveRED(AdaptiveREDConfig{Limit: 300, CapacityPPS: 1000, ECN: false}, rng)
	p0 := a.MaxP()
	now := sim.Time(0)
	// Sustained overload: queue sits near the top of the band.
	for i := 0; i < 20000; i++ {
		now += 500 * sim.Microsecond
		a.Enqueue(pkt(1000), now)
		if i%4 != 0 { // serve 3 of 4
			a.Dequeue(now)
		}
	}
	if a.MaxP() <= p0 {
		t.Fatalf("MaxP did not increase under overload: %v -> %v", p0, a.MaxP())
	}
	if a.MaxP() > 0.5+0.01 {
		t.Fatalf("MaxP exceeded ceiling: %v", a.MaxP())
	}
}

func TestAdaptiveREDAdaptsMaxPDown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAdaptiveRED(AdaptiveREDConfig{Limit: 300, CapacityPPS: 1000}, rng)
	p0 := a.MaxP()
	now := sim.Time(0)
	// Light load: queue stays essentially empty.
	for i := 0; i < 5000; i++ {
		now += 10 * sim.Millisecond
		a.Enqueue(pkt(1000), now)
		a.Dequeue(now)
	}
	if a.MaxP() >= p0 {
		t.Fatalf("MaxP did not decrease under light load: %v -> %v", p0, a.MaxP())
	}
	if a.MaxP() < 0.01*0.89 {
		t.Fatalf("MaxP fell below floor: %v", a.MaxP())
	}
}

func TestDesignPIMatchesHollot(t *testing.T) {
	// Hollot et al. INFOCOM 2001, Section V: C=3750 pkt/s, N=60 flows,
	// Rmax=246 ms, sampled at 160 Hz gives a=1.822e-5, b=1.816e-5.
	g := DesignPI(3750, 60, 246*sim.Millisecond, 160)
	if g.A < 1.5e-5 || g.A > 2.2e-5 {
		t.Fatalf("A = %g, want ~1.82e-5", g.A)
	}
	if g.B < 1.5e-5 || g.B > 2.2e-5 {
		t.Fatalf("B = %g, want ~1.82e-5", g.B)
	}
	if g.A <= g.B {
		t.Fatalf("A (%g) must exceed B (%g)", g.A, g.B)
	}
	if got := g.Interval.Seconds(); got < 1.0/160-1e-9 || got > 1.0/160+1e-9 {
		t.Fatalf("interval = %v", g.Interval)
	}
}

func TestPIControlsQueueTowardReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 1000 pkt/s link, arrivals at 1250 pkt/s: 25% overload that PI must
	// shave via early drops while holding the queue near QRef. Gains are
	// tuned for an open-loop (non-TCP-reactive) source; DesignPI gains
	// assume the TCP plant and converge too slowly for a short unit test.
	g := PIGains{A: 2e-3, B: 1.9e-3, Interval: 5 * sim.Millisecond}
	pi := NewPI(500, 50, g, false, rng)
	now := sim.Time(0)
	var qSum float64
	var qN int
	serveEvery := sim.Seconds(1.0 / 1000)
	arriveEvery := sim.Seconds(1.0 / 1250)
	nextServe, nextArrive := sim.Time(0), sim.Time(0)
	for now < 60*sim.Second {
		if nextArrive <= nextServe {
			now = nextArrive
			pi.Enqueue(pkt(1000), now)
			nextArrive += arriveEvery
		} else {
			now = nextServe
			pi.Dequeue(now)
			nextServe += serveEvery
		}
		if now > 30*sim.Second {
			qSum += float64(pi.Len())
			qN++
		}
	}
	avg := qSum / float64(qN)
	if avg < 25 || avg > 100 {
		t.Fatalf("PI steady-state queue %v, want near QRef=50", avg)
	}
	// A 25% overload requires a steady drop probability near 0.2.
	if pi.P() < 0.1 || pi.P() > 0.35 {
		t.Fatalf("PI steady-state p = %v, want near 0.2", pi.P())
	}
	if pi.EarlyDrops == 0 {
		t.Fatal("PI never early-dropped under overload")
	}
}

func TestPIProbabilityBounds(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := PIGains{A: 1e-3, B: 0.9e-3, Interval: sim.Millisecond}
		pi := NewPI(100, 20, g, false, rng)
		now := sim.Time(0)
		for _, enq := range ops {
			now += 500 * sim.Microsecond
			if enq {
				pi.Enqueue(pkt(500), now)
			} else {
				pi.Dequeue(now)
			}
			if pi.P() < 0 || pi.P() > 1 {
				return false
			}
			if pi.Len() > 100 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPIECNMarking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := PIGains{A: 1e-2, B: 0.5e-2, Interval: sim.Millisecond}
	pi := NewPI(1000, 5, g, true, rng)
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		now += 100 * sim.Microsecond
		p := pkt(1000)
		p.ECT = true
		pi.Enqueue(p, now)
		if i%3 == 0 {
			pi.Dequeue(now)
		}
	}
	if pi.ECNMarks == 0 {
		t.Fatal("PI/ECN never marked")
	}
	if pi.EarlyDrops != 0 {
		t.Fatal("PI/ECN dropped ECT packets early")
	}
}
