package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pert/internal/scenario"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx := WithWorkers(context.Background(), workers)
		var hits [100]int32
		if err := forEach(ctx, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := forEach(context.Background(), 0, func(int) { t.Fatal("called for empty range") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(WithWorkers(context.Background(), workers))
		var calls atomic.Int32
		err := forEach(ctx, 1000, func(i int) {
			if calls.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if n := calls.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation dispatched all %d indices", workers, n)
		}
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := WithWorkers(context.Background(), workers)
		err := forEach(ctx, 50, func(i int) {
			if i == 7 {
				panic("boom")
			}
		})
		if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestWorkersContextAndDefault(t *testing.T) {
	ctx := context.Background()
	if got := Workers(WithWorkers(ctx, 3)); got != 3 {
		t.Fatalf("context workers = %d", got)
	}
	// n < 1 leaves the context unchanged.
	if got := Workers(WithWorkers(ctx, 0)); got != Workers(ctx) {
		t.Fatalf("zero workers overrode default: %d", got)
	}
	if got := Workers(ctx); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS", got)
	}
	// An explicit context count always wins.
	if got := Workers(WithWorkers(ctx, 2)); got != 2 {
		t.Fatalf("context workers = %d", got)
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	points := []sweepPoint{
		{"a", quickSpecShort(301)},
		{"b", quickSpecShort(302)},
	}
	run := func(workers int) [][]string {
		ctx := WithWorkers(context.Background(), workers)
		tab, err := runSweep(ctx, "t", "t", "x", points, []Scheme{PERT, SackDroptail})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Rows
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != len(parallel) {
		t.Fatal("row counts differ")
	}
	for i := range serial {
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("row %d col %d: %q vs %q", i, j, serial[i][j], parallel[i][j])
			}
		}
	}
}

func quickSpecShort(seed int64) scenario.Spec {
	s := quickSpec(seed)
	s.Duration = seconds(10)
	s.MeasureFrom = seconds(3)
	s.MeasureUntil = seconds(10)
	return s
}
