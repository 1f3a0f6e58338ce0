package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements conservative-lookahead parallel simulation: a
// ShardGroup owns N independent engines (one per graph partition), each run
// on its own goroutine, synchronized by the classic null-message bound. A
// shard with incoming ports may execute events only up to
//
//	horizon = min over senders (sender commit + port lookahead) - 1,
//
// where a sender's commit C is its published promise "every message I send
// from now on arrives strictly after C + lookahead". Link propagation delay
// is the lookahead, so the bound is exactly the physical fact that a packet
// entering a wire now cannot emerge from it sooner than its delay.
//
// Determinism contract:
//
//   - One shard is the serial engine: a group of size 1 has no ports and
//     runs Engine.Run directly, bit-identical to an unsharded run.
//   - Fixed N is deterministic: each shard's RNG stream derives from the
//     base seed and the shard index, and cross-shard messages carry heap
//     keys built from (sender shard, per-port message number) — so two runs
//     interleave identically in virtual time no matter how the goroutines
//     interleave in wall time. The keys sort above every locally assigned
//     sequence number, giving same-instant injections a fixed place after
//     local work, and they consume no local sequence numbers at all.

// Heap-key ranges. Ordinary events use Engine.seq, a counter that starts at
// 1 and cannot plausibly reach 2^63 (at 10^9 events/s that is centuries of
// wall clock); cross-shard injections live in [2^63, 2^63+2^61): the top bit,
// then the sender's shard index above a 47-bit per-port message number.
const (
	extKeyBase    = uint64(1) << 63
	extShardShift = 47 // shard index field offset inside an injection key

	// MaxShards bounds a group's size so a shard index fits its 14-bit
	// field of the injection key, below the top bit that marks the range.
	MaxShards = 1 << 14
)

// portMsg is one cross-shard event: run fn(arg) at virtual time at. seq is
// the sender-side per-port message number folded into the heap key.
type portMsg struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// portBuf bounds a port's channel. Full channels apply backpressure: the
// sender spins draining its own inboxes (so two mutually full shards cannot
// deadlock) until the receiver catches up.
const portBuf = 1024

// Port is a directed cross-shard message channel with a fixed lookahead: the
// sender promises every message's arrival time is at least its own clock
// plus the lookahead (Send panics otherwise — it means a boundary link's
// delay was changed mid-run, which sharded runs must reject). A Port is
// owned by its sending shard and must only be used from that shard's
// goroutine.
type Port struct {
	from, to *Shard
	la       Duration
	ch       chan portMsg
	seq      uint64 // sender-side message counter (single-threaded)
}

// Lookahead returns the port's synchronization bound.
func (p *Port) Lookahead() Duration { return p.la }

// Send schedules fn(arg) at absolute virtual time at on the receiving
// shard's engine. Must be called from the sending shard's goroutine, during
// its Run window; at must be at least the sender's clock plus the port
// lookahead.
func (p *Port) Send(at Time, fn func(any), arg any) {
	e := p.from.eng
	if at < e.now+p.la {
		panic(fmt.Sprintf("sim: cross-shard message at %v violates lookahead %v from clock %v (boundary link delay changed mid-run?)", at, p.la, e.now))
	}
	p.seq++
	m := portMsg{at: at, seq: p.seq, fn: fn, arg: arg}
	for {
		select {
		case p.ch <- m:
			return
		default:
		}
		if p.from.group.aborted.Load() {
			panic("sim: shard group aborted")
		}
		// Receiver's inbox is full. Drain our own inboxes while we wait:
		// if the receiver is itself blocked sending to us, this unblocks
		// it, so a cycle of full channels always makes progress.
		p.from.drain()
		runtime.Gosched()
	}
}

// Shard is one partition's engine plus its synchronization state.
type Shard struct {
	idx   int
	eng   *Engine
	group *ShardGroup

	in  []*Port
	out []*Port
	// minOut is the smallest outgoing lookahead — the window chunk size.
	// Running in chunks this size keeps the published commit fresh for
	// downstream shards instead of disappearing into one long window.
	minOut Duration

	// commit is the published send bound (atomic: read by neighbors).
	commit atomic.Int64

	finished bool
	ran      uint64 // events processed by the current group Run
}

// Index returns the shard's position in its group.
func (s *Shard) Index() int { return s.idx }

// Engine returns the shard's engine.
func (s *Shard) Engine() *Engine { return s.eng }

// ShardGroup is a set of engines run in parallel under conservative
// lookahead synchronization. Create with NewShardGroup, wire Connect for
// every cross-shard edge, then Run. Between Runs (and before the first) the
// engines may be used freely from the caller's goroutine — topology
// construction, pre-run scheduling, and measurement wiring all happen
// single-threaded.
type ShardGroup struct {
	shards  []*Shard
	done    atomic.Int32
	aborted atomic.Bool
	failure atomic.Value // first panic, re-raised on the Run caller
}

// shardSeedStride spreads per-shard RNG seeds; the odd golden-ratio
// constant keeps adjacent shard seeds far apart in the generator's state
// space. Shard 0 uses the base seed unchanged, so its stream — the only one
// a serial run has — is identical at every shard count.
const shardSeedStride = int64(-7046029254386353131)

// NewShardGroup returns n engines seeded from seed: shard 0 with seed
// itself, shard i with a fixed derivation of (seed, i).
func NewShardGroup(n int, seed int64) *ShardGroup {
	if n < 1 || n > MaxShards {
		panic(fmt.Sprintf("sim: shard count %d outside [1, %d]", n, MaxShards))
	}
	g := &ShardGroup{}
	for i := 0; i < n; i++ {
		s := seed
		if i > 0 {
			s = seed + int64(i)*shardSeedStride
		}
		e := NewEngine(s)
		if i > 0 {
			e.noSimTime = true
		}
		g.shards = append(g.shards, &Shard{idx: i, eng: e, group: g})
	}
	return g
}

// N returns the number of shards.
func (g *ShardGroup) N() int { return len(g.shards) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Shard returns shard i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// Connect declares that shard `from` sends messages to shard `to` with the
// given lookahead (a boundary link's propagation delay) and returns the
// port to send them on. Lookahead must be positive — a zero-delay boundary
// admits no conservative bound. Reconnecting an existing pair returns the
// same port with the smaller of the two lookaheads. Call only before Run,
// and in a deterministic order (partitioning code iterates the topology, so
// this holds by construction).
func (g *ShardGroup) Connect(from, to int, lookahead Duration) *Port {
	if from == to {
		panic("sim: Connect within one shard")
	}
	if lookahead <= 0 {
		panic("sim: cross-shard lookahead must be positive")
	}
	fs, ts := g.shards[from], g.shards[to]
	for _, p := range fs.out {
		if p.to == ts {
			if lookahead < p.la {
				p.la = lookahead
				fs.recomputeMinOut()
			}
			return p
		}
	}
	p := &Port{from: fs, to: ts, la: lookahead, ch: make(chan portMsg, portBuf)}
	fs.out = append(fs.out, p)
	ts.in = append(ts.in, p)
	fs.recomputeMinOut()
	return p
}

func (s *Shard) recomputeMinOut() {
	s.minOut = 0
	for _, p := range s.out {
		if s.minOut == 0 || p.la < s.minOut {
			s.minOut = p.la
		}
	}
}

// EventCounts returns the number of events each shard processed during the
// most recent Run.
func (g *ShardGroup) EventCounts() []uint64 {
	out := make([]uint64, len(g.shards))
	for i, s := range g.shards {
		out[i] = s.ran
	}
	return out
}

// Run executes all shards in parallel until virtual time `until` and
// returns the total number of events processed across them. Every shard's
// clock is left at `until` exactly. A panic on any shard (an engine
// invariant, a model bug) aborts the group and is re-raised on the caller,
// like a serial run's panic.
//
// With one shard this is exactly Engine.Run — no goroutines, no ports, no
// synchronization — which is what makes the shards=1 bit-identity contract
// hold by construction.
func (g *ShardGroup) Run(until Time) uint64 {
	if len(g.shards) == 1 {
		s := g.shards[0]
		s.ran = s.eng.Run(until)
		return s.ran
	}
	g.done.Store(0)
	g.aborted.Store(false)
	for _, s := range g.shards {
		s.finished = false
		s.commit.Store(int64(s.eng.now))
	}
	var wg sync.WaitGroup
	for _, s := range g.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// First failure wins; wake every blocked shard so the
					// group unwinds instead of spinning forever.
					g.failure.CompareAndSwap(nil, fmt.Sprintf("shard %d: %v", s.idx, r))
					g.aborted.Store(true)
					s.commit.Store(int64(MaxTime))
					g.done.Add(1)
				}
			}()
			s.run(until)
		}(s)
	}
	wg.Wait()
	if f := g.failure.Load(); f != nil {
		panic(f)
	}
	var total uint64
	for _, s := range g.shards {
		total += s.ran
	}
	return total
}

// run is one shard's Run loop: load neighbor commits, drain inboxes,
// execute a bounded window, publish the new commit; repeat until the whole
// group has covered [start, until]. The load-before-drain order is the
// memory-model linchpin: any message not yet visible at drain time was sent
// after the commit we loaded, so its arrival lies beyond the horizon we are
// about to run to.
func (s *Shard) run(until Time) {
	e := s.eng
	g := s.group
	n := int32(len(g.shards))
	s.ran = 0
	idle := 0
	for {
		if g.aborted.Load() {
			panic("sim: shard group aborted")
		}
		if s.finished {
			// Keep draining so late senders never block on a full channel;
			// drained events land beyond `until` and simply never execute
			// (exactly the events a serial run leaves in its heap).
			s.drain()
			if g.done.Load() == n {
				return
			}
			idle = s.backoff(idle + 1)
			continue
		}

		h := s.horizon(until) // 1: load commits
		s.drain()             // 2: then drain — see ordering note above
		limit := h - 1
		if limit > until {
			limit = until
		}
		progressed := false
		if limit >= e.now {
			if s.minOut > 0 {
				if w := e.now + s.minOut; w < limit {
					limit = w
				}
			}
			before := e.now
			ran := e.Run(limit)
			s.ran += ran
			progressed = ran > 0 || e.now != before
			s.commit.Store(int64(e.now)) // 3: publish after the window
		}
		if e.now >= until && h > until {
			// Ran to the end and no neighbor can reach us at or before
			// `until` anymore: this shard is done.
			s.finished = true
			s.commit.Store(int64(MaxTime))
			g.done.Add(1)
			continue
		}
		if progressed {
			idle = 0
			continue
		}
		idle = s.backoff(idle + 1)
	}
}

// horizon returns the first virtual time a not-yet-visible message could
// arrive at: min over in-ports of (sender commit + lookahead). A shard with
// no in-ports is bounded only by the run end.
func (s *Shard) horizon(until Time) Time {
	h := MaxTime
	for _, p := range s.in {
		c := Time(p.from.commit.Load())
		if c >= MaxTime-p.la { // finished sender: no further messages
			continue
		}
		if t := c + p.la; t < h {
			h = t
		}
	}
	if h < MaxTime {
		return h
	}
	return until + 1
}

// drain moves every currently visible inbox message into the local heap
// under its deterministic injection key. Safe to call mid-event (Send calls
// it while blocked): it only schedules, never executes.
func (s *Shard) drain() {
	for _, p := range s.in {
		base := extKeyBase | uint64(p.from.idx)<<extShardShift
		for {
			select {
			case m := <-p.ch:
				s.eng.postExt(m.at, base|m.seq, m.fn, m.arg)
			default:
				goto next
			}
		}
	next:
	}
}

// backoff yields, then sleeps, while a shard waits on a slow neighbor. The
// yield threshold is deliberately low: on a machine with fewer cores than
// shards, long Gosched spins just thrash the scheduler against the other
// waiting shards.
func (s *Shard) backoff(idle int) int {
	if idle < 8 {
		runtime.Gosched()
	} else {
		time.Sleep(20 * time.Microsecond)
	}
	return idle
}
