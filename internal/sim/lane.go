package sim

// Lane is a FIFO event source: a stream of fn(arg) events whose times the
// caller produces in non-decreasing order — packets propagating down a link
// are the case it exists for. Post consumes one engine sequence number and
// fires under exactly the (at, seq) key Engine.Post would have used, so
// routing events through a lane cannot change a run. What changes is the
// pending set: the lane keeps a single heap key, its head's own (at, seq),
// and chains the items behind it through the engine's slab; when the head
// fires, its successor's key takes its place. A link with a thousand packets
// in flight costs the heap one key, not a thousand.
//
// Ordering never depends on the caller being right: a Post earlier than the
// lane's tail is scheduled as an ordinary heap event under the same key.
//
// A Lane is meant to be embedded by value in its owner and must not be
// copied once Init has been called.
type Lane struct {
	eng  *Engine
	fn   func(any)
	head uint32 // slab index of the item whose key is in the heap; 0 = empty
	tail uint32 // slab index of the newest item; meaningful while head != 0
}

// Init binds the lane to an engine and to the callback every item runs.
// Re-initializing an empty lane on another engine is allowed (and consumes
// no sequence numbers); doing so with items pending panics.
func (l *Lane) Init(e *Engine, fn func(any)) {
	if fn == nil {
		panic("sim: Lane.Init with nil callback")
	}
	if l.head != 0 {
		panic("sim: Lane.Init with items pending")
	}
	*l = Lane{eng: e, fn: fn}
}

// Post schedules fn(arg) at absolute virtual time at.
func (l *Lane) Post(at Time, arg any) {
	e := l.eng
	e.checkFuture(at)
	e.seq++
	if l.head != 0 && at < e.slab[l.tail].at {
		e.fallbacks++
		e.schedule(at, e.seq, l.fn, arg)
		return
	}
	e.live++
	i := e.allocSlot()
	s := &e.slab[i] // zeroed by freeSlot: only the live fields are written
	s.fn, s.arg, s.lane, s.at, s.seq = l.fn, arg, l, at, e.seq
	if l.head == 0 {
		l.head = i
		e.push(key{at: at, seq: e.seq, slot: i})
	} else {
		e.slab[l.tail].next = i
	}
	l.tail = i
}
