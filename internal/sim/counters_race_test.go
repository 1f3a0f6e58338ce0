package sim

import (
	"sync"
	"testing"
)

// TestCountersConcurrentEngines is the race-safety proof for Counters: many
// engines run in parallel goroutines (the harness's sweep shape) while a
// reader polls the process-wide counters the whole time. Run under -race
// (make check), any unsynchronized access to the shared counters fails the
// build gate.
func TestCountersConcurrentEngines(t *testing.T) {
	const engines = 8
	// Enough events per engine to cross the counterBatch flush threshold,
	// so the mid-Run flush path races against the reader too.
	const events = counterBatch + 500

	ev0, st0 := Counters()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var lastEv uint64
		var lastSt Time
		for {
			select {
			case <-stop:
				return
			default:
			}
			ev, st := Counters()
			if ev < lastEv || st < lastSt {
				t.Error("counters went backwards")
				return
			}
			lastEv, lastSt = ev, st
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			eng := NewEngine(seed)
			var tick func()
			n := 0
			tick = func() {
				n++
				if n < events {
					eng.Do(eng.Now()+Microsecond, tick)
				}
			}
			eng.Do(eng.Now(), tick)
			eng.Run(Time(events+1) * Microsecond)
		}(int64(i + 1))
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	ev1, st1 := Counters()
	if got := ev1 - ev0; got != uint64(engines*events) {
		t.Fatalf("events delta = %d, want %d", got, engines*events)
	}
	if st1-st0 <= 0 {
		t.Fatalf("sim time did not advance: %v", st1-st0)
	}
}
