package sim

import "testing"

// Pointed checks on what the pending set holds — one key per source — and
// on the counters QueueStats reports. Firing order under arbitrary operation
// streams is the oracle test's job (oracle_test.go).

func TestTimerKeepsOneCarrier(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.NewTimer(func() { fired++ })

	// An RTO pushed out by a thousand ACKs: one key, not a thousand.
	for i := 1; i <= 1000; i++ {
		tm.Reset(Time(i) * Millisecond)
	}
	if qs := e.QueueStats(); qs.HeapLen != 1 || qs.SlabLen != 1 {
		t.Fatalf("1000 later resets left %+v, want one key in one slot", qs)
	}

	// A horizon between the carrier (1 ms) and the deadline (1 s): the
	// carrier moves, nothing fires, nothing is counted, the clock stops at
	// the horizon and not at the carrier.
	if n := e.Run(500 * Millisecond); n != 0 || fired != 0 {
		t.Fatalf("Run to a horizon before the deadline processed %d events, fired %d", n, fired)
	}
	if e.Now() != 500*Millisecond || e.Pending() != 1 || !tm.Scheduled() || tm.When() != Second {
		t.Fatalf("after the early horizon: clock %v, Pending %d, armed %v for %v", e.Now(), e.Pending(), tm.Scheduled(), tm.When())
	}
	if qs := e.QueueStats(); qs.CarrierRequeues != 1 || qs.HeapLen != 1 {
		t.Fatalf("carrier was not moved to the deadline exactly once: %+v", qs)
	}

	// Moving the deadline earlier needs a new carrier; the old one is
	// dropped when it surfaces, after the timer has fired.
	tm.Reset(600 * Millisecond)
	if qs := e.QueueStats(); qs.HeapLen != 2 {
		t.Fatalf("earlier reset should add one carrier, heap has %d keys", qs.HeapLen)
	}
	if n := e.Run(2 * Second); n != 1 || fired != 1 {
		t.Fatalf("processed %d events, fired %d, want 1 and 1", n, fired)
	}
	if qs := e.QueueStats(); qs.StaleDiscards != 1 || qs.HeapLen != 0 || e.Pending() != 0 {
		t.Fatalf("superseded carrier not discarded exactly once: %+v, Pending %d", qs, e.Pending())
	}

	// A stopped timer's carrier is discarded, and a later Reset starts over.
	tm.Reset(3 * Second)
	tm.Stop()
	e.Run(4 * Second)
	tm.Reset(5 * Second)
	if n := e.Run(6 * Second); n != 1 || fired != 2 {
		t.Fatalf("timer did not fire after stop, discard and re-arm: processed %d, fired %d", n, fired)
	}
}

func TestLaneKeepsOneKeyAndSequenceOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	note := func(a any) { got = append(got, a.(int)) }
	var ln Lane
	ln.Init(e, note)

	// Same instant, alternating sources: scheduling order must win, exactly
	// as if every item had been an Engine.Post.
	e.Post(Millisecond, note, 0)
	ln.Post(Millisecond, 1)
	e.Post(Millisecond, note, 2)
	ln.Post(Millisecond, 3)
	ln.Post(2*Millisecond, 4)
	ln.Post(Millisecond, 5) // earlier than the tail: falls back, still in order
	e.Post(2*Millisecond, note, 6)
	if qs := e.QueueStats(); qs.HeapLen != 5 || qs.LaneFallbacks != 1 {
		t.Fatalf("want 3 posts + 1 lane key + 1 fallback in the heap, got %+v", qs)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	if n := e.Run(Second); n != 7 {
		t.Fatalf("processed %d events, want 7", n)
	}
	for i, v := range []int{0, 1, 2, 3, 5, 4, 6} {
		if got[i] != v {
			t.Fatalf("fire order %v", got)
		}
	}

	// An emptied lane takes any future time again, whatever its last tail.
	ln.Post(Second, 7)
	if e.QueueStats().LaneFallbacks != 1 {
		t.Fatal("post into an empty lane counted as a fallback")
	}
}

func TestLaneInit(t *testing.T) {
	e1, e2 := NewEngine(1), NewEngine(2)
	fired := 0
	var ln Lane
	ln.Init(e1, func(any) { fired++ })
	seqBefore := e1.seq
	ln.Init(e2, func(any) { fired += 10 }) // what Partition does: rebind while empty
	if e1.seq != seqBefore || e2.seq != 0 {
		t.Fatal("Lane.Init consumed a sequence number")
	}
	ln.Post(Millisecond, nil)
	e1.Run(Second)
	e2.Run(Second)
	if fired != 10 || e1.Pending() != 0 {
		t.Fatalf("rebound lane fired %d on the wrong engine or callback", fired)
	}

	ln.Post(2*Second, nil)
	for name, init := range map[string]func(){
		"pending items": func() { ln.Init(e1, func(any) {}) },
		"nil callback":  func() { new(Lane).Init(e1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lane.Init with %s did not panic", name)
				}
			}()
			init()
		}()
	}
}
