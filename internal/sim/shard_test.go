package sim

import (
	"strings"
	"testing"
)

// TestShardGroupSerialIdentity: a group of one is the serial engine — same
// RNG stream, same event interleaving, no goroutines. The bit-identity
// contract for shards=1 rests on this.
func TestShardGroupSerialIdentity(t *testing.T) {
	trace := func(run func(e *Engine, until Time) uint64) (events uint64, draws []int64, clock Time) {
		e := NewEngine(42)
		var tick func()
		n := 0
		tick = func() {
			draws = append(draws, e.Rand().Int63())
			n++
			if n < 1000 {
				e.Do(e.Now()+Microsecond, tick)
			}
		}
		e.Do(e.Now(), tick)
		events = run(e, 10*Millisecond)
		return events, draws, e.Now()
	}

	ev1, d1, c1 := trace(func(e *Engine, until Time) uint64 { return e.Run(until) })

	g := NewShardGroup(1, 42)
	ev2, d2, c2 := func() (uint64, []int64, Time) {
		e := g.Engine(0)
		var draws []int64
		var tick func()
		n := 0
		tick = func() {
			draws = append(draws, e.Rand().Int63())
			n++
			if n < 1000 {
				e.Do(e.Now()+Microsecond, tick)
			}
		}
		e.Do(e.Now(), tick)
		ev := g.Run(10 * Millisecond)
		return ev, draws, e.Now()
	}()

	if ev1 != ev2 || c1 != c2 {
		t.Fatalf("serial (%d events, clock %v) != group-of-1 (%d events, clock %v)", ev1, c1, ev2, c2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("draw counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("RNG stream diverged at draw %d", i)
		}
	}
}

// TestShardPingPong: two shards pass a token back and forth through ports
// with 1ms lookahead. Checks causal delivery (each hop lands exactly one
// lookahead after its send) and that both clocks end at the horizon.
func TestShardPingPong(t *testing.T) {
	const la = Millisecond
	const until = 100 * Millisecond
	g := NewShardGroup(2, 1)
	p01 := g.Connect(0, 1, la)
	p10 := g.Connect(1, 0, la)

	var hops0, hops1 []Time
	var bounce1, bounce0 func(any)
	bounce1 = func(any) { // runs on shard 1
		now := g.Engine(1).Now()
		hops1 = append(hops1, now)
		p10.Send(now+la, bounce0, nil)
	}
	bounce0 = func(any) { // runs on shard 0
		now := g.Engine(0).Now()
		hops0 = append(hops0, now)
		p01.Send(now+la, bounce1, nil)
	}
	g.Engine(0).Do(0, func() { p01.Send(la, bounce1, nil) })

	g.Run(until)

	if g.Engine(0).Now() != until || g.Engine(1).Now() != until {
		t.Fatalf("clocks = %v, %v, want %v", g.Engine(0).Now(), g.Engine(1).Now(), until)
	}
	// Token visits shard 1 at 1ms, 3ms, ..., 99ms and shard 0 at 2ms, 4ms,
	// ..., 100ms — the hop at exactly `until` still executes.
	if len(hops1) != 50 || len(hops0) != 50 {
		t.Fatalf("hop counts = %d, %d", len(hops1), len(hops0))
	}
	for i, at := range hops1 {
		if want := Time(2*i+1) * Millisecond; at != want {
			t.Fatalf("shard 1 hop %d at %v, want %v", i, at, want)
		}
	}
	for i, at := range hops0 {
		if want := Time(2*i+2) * Millisecond; at != want {
			t.Fatalf("shard 0 hop %d at %v, want %v", i, at, want)
		}
	}
}

// TestShardInjectionOrdering: same-instant cross-shard messages execute
// after local work at that instant, ordered by (sender shard, message
// number) — the deterministic tiebreak the heap keys encode.
func TestShardInjectionOrdering(t *testing.T) {
	const la = Millisecond
	g := NewShardGroup(3, 1)
	p10 := g.Connect(1, 0, la)
	p20 := g.Connect(2, 0, la)

	var order []string
	rec := func(tag string) func(any) {
		return func(any) { order = append(order, tag) }
	}
	// Shards 1 and 2 each send two messages landing at t=1ms on shard 0,
	// which also has local work at 1ms. Local work must run first, then
	// shard 1's messages in send order, then shard 2's.
	g.Engine(1).Do(0, func() {
		p10.Send(la, rec("s1a"), nil)
		p10.Send(la, rec("s1b"), nil)
	})
	g.Engine(2).Do(0, func() {
		p20.Send(la, rec("s2a"), nil)
		p20.Send(la, rec("s2b"), nil)
	})
	g.Engine(0).Do(la, func() { order = append(order, "local") })

	g.Run(10 * Millisecond)

	got := strings.Join(order, ",")
	if got != "local,s1a,s1b,s2a,s2b" {
		t.Fatalf("order = %s", got)
	}
}

// shardTrace runs a 4-shard ring workload and returns a per-shard trace of
// (virtual time, RNG draw) pairs — the determinism witness.
func shardTrace(seed int64) [4][]int64 {
	const la = 500 * Microsecond
	g := NewShardGroup(4, seed)
	var ports [4]*Port
	for i := 0; i < 4; i++ {
		ports[i] = g.Connect(i, (i+1)%4, la)
	}
	var traces [4][]int64
	var hop [4]func(any)
	for i := 0; i < 4; i++ {
		i := i
		e := g.Engine(i)
		hop[i] = func(any) {
			traces[i] = append(traces[i], int64(e.Now()), e.Rand().Int63())
			// Forward around the ring with a seed-dependent extra delay,
			// and occasionally fan out a second token.
			d := la + Duration(e.Rand().Int63n(int64(la)))
			ports[i].Send(e.Now()+d, hop[(i+1)%4], nil)
			if e.Rand().Int63n(4) == 0 {
				ports[i].Send(e.Now()+2*d, hop[(i+1)%4], nil)
			}
		}
	}
	for i := 0; i < 4; i++ {
		i := i
		g.Engine(i).Do(Time(i)*Microsecond, func() { ports[i].Send(g.Engine(i).Now()+la, hop[(i+1)%4], nil) })
	}
	g.Run(20 * Millisecond)
	return traces
}

// TestShardDeterminism: a fixed shard count must give the same virtual-time
// interleaving and RNG consumption on every run, regardless of goroutine
// scheduling.
func TestShardDeterminism(t *testing.T) {
	ref := shardTrace(7)
	for rep := 0; rep < 3; rep++ {
		got := shardTrace(7)
		for s := 0; s < 4; s++ {
			if len(got[s]) != len(ref[s]) {
				t.Fatalf("rep %d shard %d trace length %d, want %d", rep, s, len(got[s]), len(ref[s]))
			}
			for i := range ref[s] {
				if got[s][i] != ref[s][i] {
					t.Fatalf("rep %d shard %d diverged at %d: %d vs %d", rep, s, i, got[s][i], ref[s][i])
				}
			}
		}
	}
}

// TestShardBackpressure: flooding far more messages than a port buffers, in
// both directions at once, must not deadlock — a blocked sender drains its
// own inboxes while it waits.
func TestShardBackpressure(t *testing.T) {
	const la = Millisecond
	g := NewShardGroup(2, 1)
	p01 := g.Connect(0, 1, la)
	p10 := g.Connect(1, 0, la)

	var got0, got1 int
	count0 := func(any) { got0++ }
	count1 := func(any) { got1++ }
	const burst = 3 * portBuf
	g.Engine(0).Do(0, func() {
		for i := 0; i < burst; i++ {
			p01.Send(la+Time(i), count1, nil)
		}
	})
	g.Engine(1).Do(0, func() {
		for i := 0; i < burst; i++ {
			p10.Send(la+Time(i), count0, nil)
		}
	})
	g.Run(10 * Millisecond)
	if got0 != burst || got1 != burst {
		t.Fatalf("delivered %d, %d of %d", got0, got1, burst)
	}
}

// TestShardPanicPropagates: a model panic inside one shard surfaces on the
// Run caller instead of killing the process from a bare goroutine.
func TestShardPanicPropagates(t *testing.T) {
	g := NewShardGroup(2, 1)
	g.Connect(0, 1, Millisecond)
	g.Connect(1, 0, Millisecond)
	g.Engine(1).Do(5*Millisecond, func() { panic("model bug") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "model bug") || !strings.Contains(s, "shard 1") {
			t.Fatalf("panic payload = %v", r)
		}
	}()
	g.Run(Second)
}

// TestShardLookaheadGuard: sending below the lookahead bound is a protocol
// violation and must fail loudly.
func TestShardLookaheadGuard(t *testing.T) {
	g := NewShardGroup(2, 1)
	p := g.Connect(0, 1, Millisecond)
	g.Engine(0).Do(5*Millisecond, func() {
		p.Send(g.Engine(0).Now()+Microsecond, func(any) {}, nil)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation not caught")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "lookahead") {
			t.Fatalf("panic payload = %v", r)
		}
	}()
	g.Run(Second)
}

// TestShardConnectDedupe: reconnecting a pair returns the same port with the
// tighter lookahead (parallel links between two domains share one channel).
func TestShardConnectDedupe(t *testing.T) {
	g := NewShardGroup(2, 1)
	a := g.Connect(0, 1, 5*Millisecond)
	b := g.Connect(0, 1, 2*Millisecond)
	if a != b {
		t.Fatal("duplicate port for same shard pair")
	}
	if a.Lookahead() != 2*Millisecond {
		t.Fatalf("lookahead = %v, want tightened to 2ms", a.Lookahead())
	}
	if g.Connect(0, 1, 10*Millisecond).Lookahead() != 2*Millisecond {
		t.Fatal("looser reconnect widened the lookahead")
	}
}

// TestShardRepeatedRuns: a group survives multiple Run windows (the
// scenario runner runs warmup, measurement, and teardown as separate
// windows) with clocks and commits resuming correctly.
func TestShardRepeatedRuns(t *testing.T) {
	const la = Millisecond
	g := NewShardGroup(2, 1)
	p01 := g.Connect(0, 1, la)
	g.Connect(1, 0, la)
	var got []Time
	g.Engine(0).Do(0, func() {
		for i := 1; i <= 30; i++ {
			p01.Send(Time(i)*Millisecond, func(any) { got = append(got, g.Engine(1).Now()) }, nil)
		}
	})
	g.Run(10 * Millisecond)
	if len(got) != 10 {
		t.Fatalf("first window delivered %d", len(got))
	}
	g.Run(20 * Millisecond)
	if len(got) != 20 {
		t.Fatalf("second window delivered %d", len(got))
	}
	g.Run(40 * Millisecond)
	if len(got) != 30 {
		t.Fatalf("third window delivered %d", len(got))
	}
	for i, at := range got {
		if want := Time(i+1) * Millisecond; at != want {
			t.Fatalf("delivery %d at %v, want %v", i, at, want)
		}
	}
}

// TestShardSendDrainAllocBudget: the cross-shard hot path — Send into a
// port, drain into the receiving heap, execute — must not allocate once
// heaps and pools are warm, preserving the serial engine's 0 allocs/event
// per shard. Exercised single-threaded: the protocol's data path is
// identical, minus goroutine scheduling.
func TestShardSendDrainAllocBudget(t *testing.T) {
	g := NewShardGroup(2, 1)
	p := g.Connect(0, 1, Millisecond)
	s1 := g.Shard(1)
	fn := func(any) {}
	// Warm both heaps.
	for i := 0; i < 1024; i++ {
		p.Send(Time(i+1)*Millisecond, fn, nil)
	}
	s1.drain()
	s1.eng.Run(1024 * Millisecond)
	next := Time(1024) * Millisecond
	assertZeroAllocs(t, "Send+drain+Run", func() {
		next += Millisecond
		p.Send(next, fn, nil)
		s1.drain()
		s1.eng.Run(next)
	})
}

func TestShardGroupBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxShards + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardGroup(%d) did not panic", n)
				}
			}()
			NewShardGroup(n, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero lookahead accepted")
			}
		}()
		NewShardGroup(2, 1).Connect(0, 1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-connect accepted")
			}
		}()
		NewShardGroup(2, 1).Connect(1, 1, Millisecond)
	}()
}
