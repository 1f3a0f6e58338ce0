package sim

import (
	"runtime"
	"testing"
	"time"
)

type payload struct{ buf [1 << 16]byte }

// newPayload returns a payload and a channel closed once the collector has
// found it unreachable.
func newPayload() (*payload, <-chan struct{}) {
	collected := make(chan struct{})
	p := &payload{}
	runtime.SetFinalizer(p, func(*payload) { close(collected) })
	return p, collected
}

// touch returns a callback whose closure keeps p reachable.
func (p *payload) touch() func() { return func() { _ = p.buf[0] } }

func expectCollected(t *testing.T, what string, collected <-chan struct{}) {
	t.Helper()
	for i := 0; i < 500; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal(what)
}

// TestFiredSlotsReleaseCallbacks: the slab outlives every event that passes
// through it, so a slot must be zeroed when its event fires — closure,
// argument and lane pointer alike — or the engine would pin the last
// callback and packet each slot ever held for the rest of the run.
func TestFiredSlotsReleaseCallbacks(t *testing.T) {
	e := NewEngine(1)
	nop := func(any) {}

	p, doFired := newPayload()
	e.Do(Millisecond, p.touch())
	p, postFired := newPayload()
	e.Post(Millisecond, nop, p)
	p, timerFired := newPayload()
	e.NewTimer(p.touch()).Reset(Millisecond)
	p, extFired := newPayload()
	e.postExt(Millisecond, extKeyBase|1, nop, p)
	p = nil
	// Keep more events pending than ever fired, so the freed slots are not
	// simply the tail of a slab nobody looks at again.
	for i := 0; i < 8; i++ {
		e.Do(Second, func() {})
	}
	e.Run(Millisecond)

	expectCollected(t, "fired Do event's closure still reachable from the slab", doFired)
	expectCollected(t, "fired Post event's argument still reachable from the slab", postFired)
	expectCollected(t, "fired one-shot timer still reachable from the slab", timerFired)
	expectCollected(t, "fired injected event's argument still reachable from the slab", extFired)
	runtime.KeepAlive(e)
}

// TestLaneReleasesFiredItems: a lane chains its items through the slab, and
// an item that has fired (chained or fallen back) must not stay reachable
// through the chain, the lane or the slab while later items are pending.
func TestLaneReleasesFiredItems(t *testing.T) {
	e := NewEngine(1)
	var ln Lane
	ln.Init(e, func(any) {})

	p, headFired := newPayload()
	ln.Post(2*Millisecond, p)
	p, secondFired := newPayload()
	ln.Post(3*Millisecond, p)
	p, fallbackFired := newPayload()
	ln.Post(Millisecond, p) // earlier than the tail: ordinary heap event
	p, pending := newPayload()
	ln.Post(Second, p)
	p = nil
	if qs := e.QueueStats(); qs.LaneFallbacks != 1 || qs.HeapLen != 2 {
		t.Fatalf("want one lane key and one fallback key in the heap, got %+v", qs)
	}
	e.Run(3 * Millisecond)

	expectCollected(t, "lane head still reachable after firing", headFired)
	expectCollected(t, "lane successor still reachable after firing", secondFired)
	expectCollected(t, "lane fallback item still reachable after firing", fallbackFired)
	select {
	case <-pending:
		t.Fatal("pending lane item was collected")
	default:
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the one item still in the lane", e.Pending())
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(&ln)
}

// TestCancelKeepsClockAndPending verifies lazy deletion is invisible to the
// engine's observable state: stopped timers do not advance the clock when
// their dead keys are discarded, and Pending never counts them.
func TestCancelKeepsClockAndPending(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	tms := make([]*Timer, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		tm := e.NewTimer(func() { fired = append(fired, i) })
		tm.Reset(Time(i+1) * Millisecond)
		tms = append(tms, tm)
	}
	// Stop the odd ones; Pending must drop immediately even though the
	// heap still holds their keys.
	for i := 1; i < 10; i += 2 {
		tms[i].Stop()
		tms[i].Stop() // stopping a stopped timer is a no-op
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d after stops, want 5", got)
	}
	if qs := e.QueueStats(); qs.HeapLen != 10 {
		t.Fatalf("HeapLen = %d after stops, want all 10 keys still in the heap", qs.HeapLen)
	}
	n := e.Run(20 * Millisecond)
	if n != 5 {
		t.Fatalf("Run processed %d events, want 5", n)
	}
	if len(fired) != 5 {
		t.Fatalf("fired = %v", fired)
	}
	for _, i := range fired {
		if i%2 != 0 {
			t.Fatalf("stopped timer %d fired", i)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
	if qs := e.QueueStats(); qs.HeapLen != 0 || qs.StaleDiscards != 5 {
		t.Fatalf("after drain: %+v, want an empty heap and 5 stale discards", qs)
	}
}
