package sim

import (
	"sync"
	"testing"
)

// TestCountersShardGroup is the race-safety and accounting proof for
// Counters under intra-run parallelism: one ShardGroup's engines flush
// their batched deltas from concurrent goroutines while a reader polls.
// Two properties must hold (run under -race via make check):
//
//   - the event total is the sum over shards — every shard's events are
//     real work and genuinely additive;
//   - the simulated-time total advances by the run window ONCE, not once
//     per shard: all shards traverse the same virtual interval, so only
//     shard 0 contributes (the noSimTime suppression).
func TestCountersShardGroup(t *testing.T) {
	const shards = 4
	// Enough events per shard to cross the counterBatch threshold so the
	// mid-Run flush path runs concurrently on every shard.
	const perShard = counterBatch + 500
	const until = Time(perShard+1) * Microsecond

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

	g := NewShardGroup(shards, 99)
	// A ring keeps the shards synchronized (so their flushes overlap in
	// wall time) without carrying any load-bearing traffic.
	for i := 0; i < shards; i++ {
		g.Connect(i, (i+1)%shards, Millisecond)
	}
	for i := 0; i < shards; i++ {
		e := g.Engine(i)
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < perShard {
				e.Do(e.Now()+Microsecond, tick)
			}
		}
		e.Do(e.Now(), tick)
	}
	total := g.Run(until)
	close(stop)
	reader.Wait()

	if total != uint64(shards*perShard) {
		t.Fatalf("group processed %d events, want %d", total, shards*perShard)
	}
	ev1, st1 := Counters()
	if got := ev1 - ev0; got != uint64(shards*perShard) {
		t.Fatalf("events delta = %d, want %d", got, shards*perShard)
	}
	// The whole group advanced one window of virtual time; counting each
	// shard would report shards× the truth.
	if got := st1 - st0; got != until {
		t.Fatalf("sim-time delta = %v, want %v (one window, not %d×)", got, until, shards)
	}
}
