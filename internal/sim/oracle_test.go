package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The engine's pending set — 4-ary heap of keys, slab, coalesced timer
// carriers, lanes — is checked against the standard library's
// container/heap holding one plain item per scheduled event: the
// implementation the engine used before the hot-path work, kept here as a
// test oracle. Engine and oracle are driven in lockstep over one stream of
// operations; every callback that fires must be the oracle's next live item,
// at its time, and Pending must agree after every step.

// oracleItem mirrors one scheduled callback in the reference heap.
type oracleItem struct {
	at   Time
	seq  uint64
	id   int
	dead bool // stopped or superseded timer deadline

	chained bool // lane item the lane must hold in its chain, not a fallback
}

type oracleHeap []*oracleItem

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleItem)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// shotRec is a one-shot timer: armed once, then fired or stopped. Its
// handle stays valid afterwards, and a further Stop is a no-op.
type shotRec struct {
	tm   *Timer
	item *oracleItem
	done bool // fired or stopped
}

type tmRec struct {
	tm   *Timer
	item *oracleItem // currently scheduled deadline, nil when idle
}

// laneRec mirrors what a Lane must be holding: how many posted items are
// chained behind its head, and the newest one's time — which is what decides
// whether the next Post chains or falls back.
type laneRec struct {
	ln      Lane
	chained int
	tailAt  Time
}

// chooser is the trial's source of decisions: a seeded generator for the
// randomized test, the fuzzer's bytes for FuzzEngineOps.
type chooser interface {
	intn(n int) int
	// spent reports that the stream has run out; callbacks stop issuing
	// nested operations so the trial drains.
	spent() bool
}

type randChooser struct{ *rand.Rand }

func (c randChooser) intn(n int) int { return c.Intn(n) }
func (c randChooser) spent() bool    { return false }

type byteChooser struct {
	data []byte
	pos  int
}

func (c *byteChooser) intn(n int) int {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b) % n
}
func (c *byteChooser) spent() bool { return c.pos >= len(c.data) }

// tick is the trial's time quantum. Deadlines are small multiples of it, so
// same-instant collisions between ordinary events, timers, lane items and
// injection keys happen all the time instead of never.
const tick = Millisecond

// oracleRun drives one trial. It mirrors the engine's sequence counter by
// hand: every scheduling operation (Do, Post, Timer.Reset, Lane.Post)
// consumes exactly one sequence number, postExt and Timer.Stop consume none —
// the parity contract that keeps runs bit-identical across engine rewrites,
// checked against the engine's own counter after every step.
type oracleRun struct {
	t         *testing.T
	e         *Engine
	c         chooser
	oh        oracleHeap
	seq       uint64
	extSeq    uint64
	live      int
	nextID    int
	maxItems  int
	shots     []*shotRec
	timers    []*tmRec
	lanes     []*laneRec
	fires     int
	fallbacks uint64
}

func newOracleRun(t *testing.T, seed int64, c chooser, maxItems int) *oracleRun {
	r := &oracleRun{t: t, e: NewEngine(seed), c: c, maxItems: maxItems}
	for i := 0; i < 4; i++ {
		tr := &tmRec{}
		tr.tm = r.e.NewTimer(func() {
			it := tr.item
			tr.item = nil
			if it == nil {
				t.Fatal("timer fired while oracle thinks it is idle")
			}
			r.expect(it)
			if r.more() && r.c.intn(3) == 0 {
				// Re-arm from inside the timer's own callback.
				r.resetTimer(tr, r.futureTime())
			}
			r.maybeOps(r.c.intn(3))
		})
		r.timers = append(r.timers, tr)
	}
	for i := 0; i < 3; i++ {
		lr := &laneRec{}
		lr.ln.Init(r.e, func(a any) {
			it := a.(*oracleItem)
			if it.chained {
				lr.chained--
			}
			r.expect(it)
			if r.more() && r.c.intn(3) == 0 {
				// The lane's callback posts back into the same lane.
				r.lanePost(lr, r.futureTime())
			}
			r.maybeOps(r.c.intn(2))
		})
		r.lanes = append(r.lanes, lr)
	}
	return r
}

// expect pops the next live item off the reference heap and asserts the
// engine fired exactly that item at exactly its scheduled time, and that
// both sides agree on what is still pending.
func (r *oracleRun) expect(got *oracleItem) {
	r.t.Helper()
	for r.oh.Len() > 0 {
		it := heap.Pop(&r.oh).(*oracleItem)
		if it.dead {
			continue
		}
		if it != got {
			r.t.Fatalf("fire order diverged: engine fired id %d (at %v, seq %d), oracle expects id %d (at %v, seq %d)",
				got.id, got.at, got.seq, it.id, it.at, it.seq)
		}
		if r.e.Now() != it.at {
			r.t.Fatalf("id %d fired at clock %v, scheduled for %v", it.id, r.e.Now(), it.at)
		}
		r.fires++
		r.live--
		r.checkPending()
		return
	}
	r.t.Fatalf("engine fired id %d but the oracle heap is empty", got.id)
}

func (r *oracleRun) checkPending() {
	r.t.Helper()
	if got := r.e.Pending(); got != r.live {
		r.t.Fatalf("Pending = %d, oracle has %d live items", got, r.live)
	}
	if r.e.seq != r.seq {
		r.t.Fatalf("engine drew %d sequence numbers, oracle %d", r.e.seq, r.seq)
	}
}

func (r *oracleRun) futureTime() Time {
	return r.e.Now() + Time(r.c.intn(16))*tick
}

// newItem schedules a live item in the oracle under the next local sequence
// number; newItemKey does the same under an explicit key.
func (r *oracleRun) newItem(at Time) *oracleItem {
	r.seq++
	return r.newItemKey(at, r.seq)
}

func (r *oracleRun) newItemKey(at Time, key uint64) *oracleItem {
	it := &oracleItem{at: at, seq: key, id: r.nextID}
	r.nextID++
	r.live++
	heap.Push(&r.oh, it)
	return it
}

func (r *oracleRun) kill(it *oracleItem) {
	it.dead = true
	r.live--
}

func (r *oracleRun) liveShots() []*shotRec {
	var live []*shotRec
	for _, rec := range r.shots {
		if !rec.done {
			live = append(live, rec)
		}
	}
	return live
}

func (r *oracleRun) resetTimer(tr *tmRec, at Time) {
	if tr.item != nil {
		r.kill(tr.item)
	}
	tr.item = r.newItem(at)
	tr.tm.Reset(at)
}

func (r *oracleRun) lanePost(lr *laneRec, at Time) {
	it := r.newItem(at)
	if lr.chained > 0 && at < lr.tailAt {
		r.fallbacks++ // must be scheduled as an ordinary event
	} else {
		it.chained = true
		lr.chained++
		lr.tailAt = at
	}
	lr.ln.Post(at, it)
}

// maybeOps issues up to n further operations; callbacks call this to
// exercise scheduling and cancelation from inside the event loop.
func (r *oracleRun) maybeOps(n int) {
	for i := 0; i < n && r.more(); i++ {
		r.op()
	}
}

// more reports whether callbacks may still schedule: the trial has an item
// budget so that it drains, and stops when the decision stream runs out.
func (r *oracleRun) more() bool { return r.nextID < r.maxItems && !r.c.spent() }

func (r *oracleRun) op() {
	switch k := r.c.intn(15); k {
	case 0, 1: // one-shot timer: NewTimer draws no sequence number, Reset one
		rec := &shotRec{}
		rec.tm = r.e.NewTimer(func() {
			rec.done = true
			r.expect(rec.item)
			r.maybeOps(r.c.intn(3))
		})
		rec.item = r.newItem(r.futureTime())
		rec.tm.Reset(rec.item.at)
		r.shots = append(r.shots, rec)
	case 2: // handle-free closure
		it := r.newItem(r.futureTime())
		r.e.Do(it.at, func() {
			r.expect(it)
			r.maybeOps(r.c.intn(2))
		})
	case 3: // handle-free with boxed argument
		it := r.newItem(r.futureTime())
		r.e.Post(it.at, func(a any) {
			r.expect(a.(*oracleItem))
			r.maybeOps(r.c.intn(2))
		}, it)
	case 4: // stop a pending one-shot timer (lazy deletion in the engine)
		live := r.liveShots()
		if len(live) == 0 {
			return
		}
		rec := live[r.c.intn(len(live))]
		rec.tm.Stop()
		r.kill(rec.item)
		rec.done = true
	case 5: // stop any one-shot timer: on a fired or stopped one, a no-op
		if len(r.shots) == 0 {
			return
		}
		rec := r.shots[r.c.intn(len(r.shots))]
		rec.tm.Stop()
		if !rec.done {
			r.kill(rec.item)
			rec.done = true
		}
	case 6: // move a timer deadline anywhere
		r.resetTimer(r.timers[r.c.intn(len(r.timers))], r.futureTime())
	case 7, 8, 9: // move an armed timer later / earlier / to the same instant
		tr := r.timers[r.c.intn(len(r.timers))]
		at := r.futureTime()
		if tr.item != nil {
			switch k {
			case 7:
				at = tr.item.at + Time(1+r.c.intn(8))*tick
			case 8:
				if at = tr.item.at - Time(1+r.c.intn(8))*tick; at < r.e.Now() {
					at = r.e.Now()
				}
			case 9:
				at = tr.item.at
			}
		}
		r.resetTimer(tr, at)
	case 10: // stop a timer (consumes no sequence number)
		tr := r.timers[r.c.intn(len(r.timers))]
		if tr.item != nil {
			r.kill(tr.item)
			tr.item = nil
		}
		tr.tm.Stop()
	case 11: // stop, then re-arm while the old carrier is still in the heap
		tr := r.timers[r.c.intn(len(r.timers))]
		if tr.item != nil {
			r.kill(tr.item)
			tr.item = nil
		}
		tr.tm.Stop()
		r.resetTimer(tr, r.futureTime())
	case 12: // lane post that respects the lane's order
		lr := r.lanes[r.c.intn(len(r.lanes))]
		at := r.futureTime()
		if lr.chained > 0 && at < lr.tailAt {
			at = lr.tailAt
		}
		r.lanePost(lr, at)
	case 13: // lane post at any time: may be earlier than the tail
		r.lanePost(r.lanes[r.c.intn(len(r.lanes))], r.futureTime())
	case 14: // cross-shard injection key: above every local sequence number
		r.extSeq++
		it := r.newItemKey(r.futureTime(), extKeyBase|uint64(r.c.intn(3))<<extShardShift|r.extSeq)
		r.e.postExt(it.at, it.seq, func(a any) {
			r.expect(a.(*oracleItem))
			r.maybeOps(r.c.intn(2))
		}, it)
	}
}

// runTo advances the engine to a horizon and checks what a horizon promises:
// the clock stands at it, and nothing live at or before it was left behind —
// including a timer whose carrier sat before the horizon and whose real
// deadline lies after it.
func (r *oracleRun) runTo(until Time) {
	r.t.Helper()
	r.e.Run(until)
	if r.e.Now() != until {
		r.t.Fatalf("clock = %v after Run(%v)", r.e.Now(), until)
	}
	for r.oh.Len() > 0 && r.oh[0].dead {
		heap.Pop(&r.oh)
	}
	if r.oh.Len() > 0 && r.oh[0].at <= until {
		it := r.oh[0]
		r.t.Fatalf("Run(%v) left id %d (at %v, seq %d) unfired", until, it.id, it.at, it.seq)
	}
	r.checkPending()
}

// finish drains the trial and checks that both sides end empty and that the
// engine's own occupancy counters tell the same story.
func (r *oracleRun) finish() {
	r.t.Helper()
	for {
		r.runTo(r.e.Now() + 64*tick)
		if r.live == 0 {
			break
		}
	}
	for r.oh.Len() > 0 {
		if it := heap.Pop(&r.oh).(*oracleItem); !it.dead {
			r.t.Fatalf("oracle item id %d at %v never fired", it.id, it.at)
		}
	}
	if r.live != 0 || r.e.Pending() != 0 {
		r.t.Fatalf("%d events pending after drain (oracle %d)", r.e.Pending(), r.live)
	}
	qs := r.e.QueueStats()
	if qs.HeapLen != 0 {
		r.t.Fatalf("heap holds %d keys after drain", qs.HeapLen)
	}
	if qs.LaneFallbacks != r.fallbacks {
		r.t.Fatalf("engine counted %d lane fallbacks, oracle %d", qs.LaneFallbacks, r.fallbacks)
	}
	for i, lr := range r.lanes {
		if lr.ln.head != 0 {
			r.t.Fatalf("lane %d not empty after drain", i)
		}
	}
}

// TestHeapMatchesContainerHeapOracle drives the engine and the
// container/heap oracle side by side through randomized schedules: one-shot
// timers stopped while pending and after firing; timer resets later, earlier and to the same instant, stops,
// stop-then-reset, and re-arming from the timer's own callback; lane posts in
// and out of order, and from the lane's own callback; injection keys
// colliding with local ones at the same instant; all of it also issued
// from inside firing callbacks, with Run horizons that fall between a timer's
// carrier and its real deadline. Dead keys may linger in the engine's heap,
// a timer may be carried by a key far from its deadline and a lane by one key
// for many items, but the observable fire sequence must be indistinguishable
// from one eagerly maintained heap entry per event.
func TestHeapMatchesContainerHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := randChooser{rand.New(rand.NewSource(seed * 0x9e3779b97f4a7c))}
		r := newOracleRun(t, seed, c, 800)
		for i := 0; i < 60; i++ {
			for j := c.intn(6); j >= 0; j-- {
				r.op()
				r.checkPending()
			}
			r.runTo(r.e.Now() + Time(c.intn(5))*tick)
		}
		r.finish()
		if r.fires == 0 {
			t.Fatalf("seed %d: trial fired nothing", seed)
		}
	}
}

// FuzzEngineOps feeds the same operation alphabet from the fuzzer's bytes:
// each decision the trial makes (which operation, which timer, how far
// ahead, how many nested operations in a callback) consumes one byte.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 5, 7, 0, 3, 8, 0, 2, 9, 0, 0, 11, 0, 4, 0})
	f.Add([]byte{12, 0, 3, 12, 0, 1, 13, 0, 0, 13, 1, 9, 14, 2, 1, 5, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 4, 2, 4, 0, 10, 1, 11, 1, 7, 3, 1, 200, 31, 77, 5, 9, 250, 14, 4, 0, 5, 0, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		c := &byteChooser{data: data}
		r := newOracleRun(t, 1, c, 4000)
		for !c.spent() {
			r.op()
			r.checkPending()
			if c.intn(4) == 0 {
				r.runTo(r.e.Now() + Time(c.intn(5))*tick)
			}
		}
		r.finish()
	})
}
