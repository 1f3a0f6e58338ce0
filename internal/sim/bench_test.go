package sim

import "testing"

// Microbenchmarks for the engine's hot path: schedule one event, run it.
// Report ns/event and allocs/event; the alloc-budget tests below turn the
// zero-allocation property into a hard assertion so CI catches regressions
// without having to compare benchmark numbers.

func BenchmarkDoRun(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		e.Do(t, fn)
		e.Run(t)
	}
}

func BenchmarkPostRun(b *testing.B) {
	e := NewEngine(1)
	fn := func(any) {}
	var arg int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		e.Post(t, fn, &arg)
		e.Run(t)
	}
}

func BenchmarkAtRun(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		e.At(t, fn)
		e.Run(t)
	}
}

func BenchmarkAtCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		e.At(t, fn).Cancel()
		e.Run(t) // discards the dead entry, recycling the Event
	}
}

func BenchmarkTimerResetRun(b *testing.B) {
	e := NewEngine(1)
	tm := e.NewTimer(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		tm.Reset(t)
		e.Run(t)
	}
}

// BenchmarkTimerPushedOut is the retransmission-timer pattern: the deadline
// is moved later many times (once per ACK) for every time a key of the timer
// surfaces, so almost every Reset is a stamp update with no heap operation.
func BenchmarkTimerPushedOut(b *testing.B) {
	e := NewEngine(1)
	tm := e.NewTimer(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		tm.Reset(t + 200)
		e.Run(t)
	}
}

// BenchmarkLanePostRun is a link's arrival path: eight items in flight on
// one lane, one heap key between them.
func BenchmarkLanePostRun(b *testing.B) {
	e := NewEngine(1)
	var ln Lane
	ln.Init(e, func(any) {})
	var arg int
	for i := 1; i <= 8; i++ {
		ln.Post(Time(i), &arg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(i + 1)
		ln.Post(t+8, &arg)
		e.Run(t)
	}
}

// BenchmarkScheduleBurst measures heap operations at depth: schedule 1024
// events, then drain them, amortizing per-event cost over a populated heap.
func BenchmarkScheduleBurst(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	const burst = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < burst; j++ {
			e.Do(base+Time(j+1), fn)
		}
		e.Run(base + Time(burst))
	}
}

// The alloc-budget assertions: after warmup (heap, slab and the Event free
// list grown), the schedule/fire cycle must not allocate at all. These
// budgets are the CI fence for the pooling work — a future change that
// reintroduces a per-event allocation fails the suite, not just a benchmark
// comparison.

func warmedEngine() *Engine {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.At(Time(i+1), fn)
	}
	e.Run(Time(1024))
	return e
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
		t.Errorf("%s allocates %.1f per op, budget is 0", name, allocs)
	}
}

func TestScheduleAllocBudget(t *testing.T) {
	e := warmedEngine()
	fn := func() {}
	pfn := func(any) {}
	var arg int
	tm := e.NewTimer(func() {})
	next := e.Now()

	assertZeroAllocs(t, "Do+Run", func() {
		next++
		e.Do(next, fn)
		e.Run(next)
	})
	assertZeroAllocs(t, "At+Run", func() {
		next++
		e.At(next, fn)
		e.Run(next)
	})
	assertZeroAllocs(t, "At+Cancel+Run", func() {
		next++
		e.At(next, fn).Cancel()
		e.Run(next)
	})
	assertZeroAllocs(t, "Post+Run", func() {
		next++
		e.Post(next, pfn, &arg)
		e.Run(next)
	})
	assertZeroAllocs(t, "Timer.Reset+Run", func() {
		next++
		tm.Reset(next)
		e.Run(next)
	})

	// The rare branches of the pending set are budgeted too: a carrier that
	// surfaces early and is requeued, one superseded by an earlier Reset and
	// discarded, a lane chaining items behind its head, and a lane post that
	// falls back to an ordinary event.
	before := e.QueueStats()
	assertZeroAllocs(t, "Timer.Reset later+requeue+Run", func() {
		tm.Reset(next + 1)
		tm.Reset(next + 3) // carrier stays at +1 and is moved when it surfaces
		next += 3
		e.Run(next)
	})
	assertZeroAllocs(t, "Timer.Reset earlier+discard+Run", func() {
		tm.Reset(next + 3)
		tm.Reset(next + 1) // new carrier; the one at +3 is dropped when it surfaces
		next += 3
		e.Run(next)
	})
	var ln Lane
	assertZeroAllocs(t, "Lane.Init", func() { ln.Init(e, pfn) })
	assertZeroAllocs(t, "Lane.Post x3+Run", func() {
		ln.Post(next+1, &arg)
		ln.Post(next+2, &arg)
		ln.Post(next+2, &arg)
		next += 2
		e.Run(next)
	})
	assertZeroAllocs(t, "Lane.Post fallback+Run", func() {
		ln.Post(next+2, &arg)
		ln.Post(next+1, &arg)
		next += 2
		e.Run(next)
	})
	after := e.QueueStats()
	if after.CarrierRequeues == before.CarrierRequeues || after.StaleDiscards == before.StaleDiscards ||
		after.LaneFallbacks == before.LaneFallbacks {
		t.Errorf("budgeted rare branches did not all run: before %+v, after %+v", before, after)
	}
	if after.HeapLen != 0 || e.Pending() != 0 {
		t.Errorf("pending set not empty after the budget loops: %+v, Pending %d", after, e.Pending())
	}
}
