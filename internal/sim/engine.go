package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// key is one element of the engine's pending-event heap: the firing order
// (time, sequence) of one event source plus the index of the slab slot that
// says what to run. Keys hold no pointers, so sifting them costs no write
// barriers and the collector never scans the heap array.
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

// before reports heap order: (time, sequence) lexicographic, so two events
// scheduled for the same instant fire in scheduling order, which keeps runs
// fully deterministic.
func (a key) before(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is one entry of the engine-wide slab that heap keys and lane chains
// point into by index. It is touched once when the event is scheduled and
// once when it fires, never while keys are sifted. What a slot holds:
//
//   - Post/PostAfter/postExt: fn and arg;
//   - a Lane item: fn and arg likewise, plus lane, the item's own (at, seq)
//     and next, the index of its successor in the lane;
//   - Do/DoLast, At, a Timer carrier: fn is nil and arg is the func(), the
//     *Event or the *Timer (all pointer-shaped, so boxing them allocates
//     nothing).
//
// Free slots are chained through next from Engine.free and hold nothing
// else: a vacated slot is zeroed, so the slab never retains a dead callback,
// argument or packet.
type slot struct {
	fn   func(any)
	arg  any
	lane *Lane
	at   Time
	seq  uint64
	next uint32
}

// Event is a scheduled callback handle returned by At/After. Events fire in
// (time, sequence) order.
//
// Handle validity: an Event handle is valid until the event fires or is
// canceled and its heap key is discarded; after that the engine recycles
// the struct through a free list and the handle may alias a future event.
// Code that needs a long-lived rearmable handle must use Timer instead —
// Cancel/Scheduled on a handle that may already have fired is a bug.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	dead   bool
	engine *Engine
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. The callback closure is released
// immediately (not when the dead heap key is eventually popped), so a
// canceled event never keeps its captured state reachable.
func (e *Event) Cancel() {
	if e == nil || e.dead {
		return
	}
	e.dead = true
	e.fn = nil
	e.engine.live--
	e.engine = nil // a stale handle must not pin the engine either
}

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && !e.dead }

// Time reports when the event is (or was) scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Engine is a single-threaded discrete-event simulator. It owns virtual time,
// the pending-event set, and the run's random number generator. An Engine is
// not safe for concurrent use; simulations are deterministic single-goroutine
// programs by design.
//
// The pending set holds event sources, not events. pq is a 4-ary implicit
// heap of 24-byte pointer-free keys; callbacks, arguments and handles sit in
// slab, indexed by the key. A one-shot event (Do, Post, At) is a source of
// one; a Timer keeps at most one live key however often it is reset; a Lane
// keeps one key for the head of its FIFO and chains the rest through the
// slab. Cancelation is lazy: a canceled Event, a stopped Timer and a Timer
// whose deadline moved earlier leave their key in the heap, to be discarded
// when it surfaces. Together with the Event free list this makes the
// schedule/pop cycle allocation-free.
type Engine struct {
	now     Time
	pq      []key
	slab    []slot // slot 0 is reserved: index 0 means "none"
	free    uint32 // head of the free-slot chain through slot.next
	seq     uint64
	live    int // scheduled events excluding dead/stale heap keys
	rng     *rand.Rand
	stopped bool

	// barrierSeq numbers DoLast entries within their own key range, above
	// every ordinary sequence number and every cross-shard injection key
	// (see shard.go), so barriers at time t fire after all other work at t.
	barrierSeq uint64

	// noSimTime suppresses this engine's contribution to the process-wide
	// totalSimTime counter. A ShardGroup sets it on every shard but the
	// first: all shards advance through the same virtual interval, so
	// counting each of them would report N× the real simulated time (the
	// event count, by contrast, is genuinely additive).
	noSimTime bool

	// freeEvents recycles fired and canceled Event structs. An Event is
	// returned to the list when its heap key is discarded, which is why
	// stale handles must not be used (see Event).
	freeEvents []*Event

	// Rare-branch counters behind QueueStats.
	requeues, stale, fallbacks uint64

	// Processed counts events executed so far; useful for benchmarks and
	// runaway-simulation guards.
	Processed uint64
}

// NewEngine returns an engine with virtual time 0 and a deterministic RNG
// derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), slab: make([]slot, 1)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random number generator. All
// stochastic model components (RED marking, PERT response draws, traffic
// generators) must draw from this generator so a seed fully determines a run.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// QueueStats is a snapshot of the pending set's occupancy and of how often
// its rare branches ran. Reading it costs nothing on the hot path: the
// lengths are slice lengths and the counters are bumped only where a key is
// requeued, discarded or falls back.
type QueueStats struct {
	HeapLen int // keys in the heap: one per event source, plus dead keys not yet popped
	SlabLen int // slots ever needed at once (the slab never shrinks)

	CarrierRequeues uint64 // timer keys that surfaced early and were re-pushed at the current deadline
	StaleDiscards   uint64 // keys of canceled events, stopped timers and superseded carriers popped and dropped
	LaneFallbacks   uint64 // Lane.Post calls earlier than the lane's tail, scheduled as ordinary events
}

// QueueStats reports the pending set's occupancy counters.
func (e *Engine) QueueStats() QueueStats {
	return QueueStats{
		HeapLen:         len(e.pq),
		SlabLen:         len(e.slab) - 1,
		CarrierRequeues: e.requeues,
		StaleDiscards:   e.stale,
		LaneFallbacks:   e.fallbacks,
	}
}

// allocSlot returns the index of a zeroed slab slot.
func (e *Engine) allocSlot() uint32 {
	if i := e.free; i != 0 {
		e.free = e.slab[i].next
		e.slab[i].next = 0
		return i
	}
	if uint64(len(e.slab)) >= math.MaxUint32 {
		panic("sim: pending-event slab exhausted")
	}
	e.slab = append(e.slab, slot{})
	return uint32(len(e.slab) - 1)
}

// freeSlot zeroes slot i, so it retains no callback or argument, and chains
// it onto the free list.
func (e *Engine) freeSlot(i uint32) {
	e.slab[i] = slot{next: e.free}
	e.free = i
}

// schedule puts one ordinary event into the pending set under key (at, seq).
func (e *Engine) schedule(at Time, seq uint64, fn func(any), arg any) {
	e.live++
	e.enqueue(at, seq, fn, arg)
}

// enqueue gives (fn, arg) a slot and pushes its key, without counting an
// event: schedule's second half, and all of a timer carrier.
func (e *Engine) enqueue(at Time, seq uint64, fn func(any), arg any) {
	i := e.allocSlot()
	s := &e.slab[i]
	s.fn, s.arg = fn, arg
	e.push(key{at: at, seq: seq, slot: i})
}

// push inserts k, sifting up without intermediate swaps (parents are
// shifted down and the key is written once).
func (e *Engine) push(k key) {
	e.pq = append(e.pq, k)
	q := e.pq
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = k
}

// pop removes the minimum key.
func (e *Engine) pop() {
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq = e.pq[:n]
	if n > 0 {
		e.replaceTop(last)
	}
}

// replaceTop overwrites the minimum key with k and restores heap order by
// sifting k down from the root, shifting instead of swapping. A lane
// advancing to its next item and a timer carrier moving to its current
// deadline use it directly: one sift instead of a pop and a push.
func (e *Engine) replaceTop(k key) {
	q := e.pq
	n := len(q)
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(k) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = k
}

func (e *Engine) allocEvent() *Event {
	if k := len(e.freeEvents); k > 0 {
		ev := e.freeEvents[k-1]
		e.freeEvents = e.freeEvents[:k-1]
		return ev
	}
	return &Event{}
}

func (e *Engine) recycleEvent(ev *Event) {
	ev.fn = nil
	ev.dead = true
	ev.engine = nil
	e.freeEvents = append(e.freeEvents, ev)
}

// checkFuture panics on past scheduling: it always indicates a model bug,
// and silently reordering events would corrupt causality.
func (e *Engine) checkFuture(t Time) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
}

// At schedules fn to run at absolute virtual time t and returns a cancelable
// handle. The handle is only valid until the event fires (see Event); code
// that never cancels should prefer Do, which skips the handle entirely.
func (e *Engine) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	e.checkFuture(t)
	e.seq++
	ev := e.allocEvent()
	ev.at, ev.seq, ev.fn, ev.dead, ev.engine = t, e.seq, fn, false, e
	e.schedule(t, ev.seq, nil, ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Do schedules fn to run at absolute virtual time t with no cancelation
// handle. The callback is stored in a slab slot, so scheduling allocates
// nothing beyond amortized heap and slab growth.
func (e *Engine) Do(t Time, fn func()) {
	if fn == nil {
		panic("sim: Do with nil callback")
	}
	e.checkFuture(t)
	e.seq++
	e.schedule(t, e.seq, nil, fn)
}

// DoAfter schedules fn to run d after the current time, without a handle.
func (e *Engine) DoAfter(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.Do(e.now+d, fn)
}

// Post schedules fn(arg) at absolute virtual time t with no handle. Because
// fn can be a long-lived closure and arg a pointer boxed without allocation,
// Post lets hot paths (per-packet link deliveries) schedule work with zero
// allocations where a fresh capturing closure would allocate every call.
func (e *Engine) Post(t Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: Post with nil callback")
	}
	e.checkFuture(t)
	e.seq++
	e.schedule(t, e.seq, fn, arg)
}

// PostAfter schedules fn(arg) to run d after the current time.
func (e *Engine) PostAfter(d Duration, fn func(any), arg any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.Post(e.now+d, fn, arg)
}

// postExt schedules fn(arg) at absolute time t under an externally assigned
// heap key instead of a fresh sequence number. Cross-shard injection uses it
// (shard.go): the key encodes (sender shard, per-port message number), so
// same-instant injections order deterministically regardless of when the
// receiving shard happened to drain them, and the local sequence counter is
// never consumed — which is what keeps a one-shard run bit-identical to the
// serial engine.
func (e *Engine) postExt(t Time, key uint64, fn func(any), arg any) {
	e.checkFuture(t)
	e.schedule(t, key, fn, arg)
}

// DoLast schedules fn at absolute time t ordered after every other event at
// t — ordinary events, timers, and cross-shard injections alike (its key
// range sorts above both). Multiple barriers at the same instant fire in
// creation order. Sharded scenario runs use it to take measurement snapshots
// at window boundaries at exactly the point the serial runner reads them:
// after all simulation work at t, before anything at t+1.
func (e *Engine) DoLast(t Time, fn func()) {
	if fn == nil {
		panic("sim: DoLast with nil callback")
	}
	e.checkFuture(t)
	e.barrierSeq++
	e.schedule(t, barrierKeyBase+e.barrierSeq, nil, fn)
}

// Process-wide counters aggregated across every engine. Engines batch their
// updates every counterBatch events and at the end of each Run call, so the
// per-event cost is one comparison; the run-orchestration harness samples
// these for throughput metrics and for its no-progress watchdog (a live
// engine refreshes them at least every counterBatch events, so a flat
// counter over a wall-clock window really means a stuck run). They are
// monotone and never reset — consumers take deltas.
var (
	totalEvents  atomic.Uint64
	totalSimTime atomic.Int64
)

// counterBatch is how many events an engine may process before flushing its
// delta to the process-wide counters.
const counterBatch = 1 << 16

// Counters reports the cumulative number of events processed and virtual
// time advanced by all engines in this process since it started. Safe for
// concurrent use; attribute deltas to a specific run only when no other
// engine is active.
func Counters() (events uint64, simTime Time) {
	return totalEvents.Load(), Time(totalSimTime.Load())
}

// Run executes events in timestamp order until the queue empties, Stop is
// called, or virtual time would pass until. It returns the number of events
// processed by this call. Keys that are not events — dead keys discarded
// along the way, timer carriers moved to their current deadline, a lane's
// next head entering the heap — are not counted and never advance the clock.
// The engine's clock is left at min(until, time of last event); calling Run
// again with a later horizon resumes the simulation.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	var n, flushedN uint64
	flushedNow := e.now
	for len(e.pq) > 0 && !e.stopped {
		k := e.pq[0]
		if k.at > until {
			break
		}

		// Resolve the key to a callback and take it (or, for a lane, the
		// item it stands for) out of the pending set. Dead and early keys
		// are dealt with here without touching the clock: a canceled event
		// must not advance virtual time, exactly as if it had been eagerly
		// removed. Everything needed is copied out of the slot first —
		// callbacks schedule, and scheduling may move the slab.
		s := &e.slab[k.slot]
		argFn, arg := s.fn, s.arg
		var fn func()
		if ln := s.lane; ln != nil {
			// Lane head: its successor's own (at, seq) takes its place.
			next := s.next
			ln.head = next
			if next != 0 {
				ns := &e.slab[next]
				e.replaceTop(key{at: ns.at, seq: ns.seq, slot: next})
			} else {
				e.pop()
			}
			e.freeSlot(k.slot)
		} else if argFn != nil {
			e.pop()
			e.freeSlot(k.slot)
		} else {
			switch v := arg.(type) {
			case func():
				fn = v
			case *Timer:
				if v.carrierSeq != k.seq {
					break // superseded by an earlier carrier: dead key
				}
				if v.scheduled && v.seq != k.seq {
					// The carrier surfaced before the deadline the latest
					// Reset set: move it there, under the key that Reset
					// assigned.
					v.carrierAt, v.carrierSeq = v.when, v.seq
					e.replaceTop(key{at: v.when, seq: v.seq, slot: k.slot})
					e.requeues++
					continue
				}
				v.carrierSeq = 0
				if v.scheduled {
					v.scheduled = false
					fn = v.fn
				}
			case *Event:
				if !v.dead {
					fn = v.fn
				}
				e.recycleEvent(v)
			default:
				panic("sim: pending-event slot holds no callback")
			}
			e.pop()
			e.freeSlot(k.slot)
			if fn == nil {
				e.stale++ // canceled event, stopped timer or superseded carrier
				continue
			}
		}

		if k.at < e.now {
			// At() rejects past scheduling, so a backwards event can only
			// mean heap corruption; executing it would corrupt causality
			// silently, which is strictly worse than dying loudly.
			panic(fmt.Sprintf("sim: event-time monotonicity violated: next event at %v, clock at %v", k.at, e.now))
		}
		e.now = k.at
		e.live--
		if fn != nil {
			fn()
		} else {
			argFn(arg)
		}
		n++
		if n-flushedN >= counterBatch {
			totalEvents.Add(n - flushedN)
			if !e.noSimTime {
				totalSimTime.Add(int64(e.now - flushedNow))
			}
			flushedN, flushedNow = n, e.now
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.Processed += n
	totalEvents.Add(n - flushedN)
	if !e.noSimTime {
		totalSimTime.Add(int64(e.now - flushedNow))
	}
	return n
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events still scheduled. Dead heap keys left
// behind by lazy cancelation are not pending events; items waiting in a lane
// behind its head are.
func (e *Engine) Pending() int { return e.live }

// Every invokes fn(now) at t0 and then every period thereafter, until the
// returned ticker is stopped or the simulation ends. It is the building block
// for periodic samplers (queue-length probes, throughput series).
func (e *Engine) Every(t0 Time, period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tm = e.NewTimer(t.tick)
	t.tm.Reset(t0)
	return t
}

// Ticker is a repeating event created by Engine.Every. It rearms a single
// persistent Timer, so a long-lived sampler allocates only at creation.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(Time)
	tm      *Timer
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn(t.engine.Now())
	if !t.stopped {
		t.tm.ResetAfter(t.period)
	}
}

// Stop halts the ticker; pending fires are canceled.
func (t *Ticker) Stop() {
	t.stopped = true
	t.tm.Stop()
}
