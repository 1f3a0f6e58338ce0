package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Milliseconds(0.001) != Microsecond {
		t.Fatalf("Milliseconds(0.001) = %v", Milliseconds(0.001))
	}
	if got := Seconds(2).Seconds(); got != 2 {
		t.Fatalf("round trip = %v", got)
	}
	if got := Milliseconds(60).Milliseconds(); got != 60 {
		t.Fatalf("ms round trip = %v", got)
	}
	if s := Seconds(0.5).String(); s != "0.500000s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Do(30*Millisecond, func() { fired = append(fired, 3) })
	e.Do(10*Millisecond, func() { fired = append(fired, 1) })
	e.Do(20*Millisecond, func() { fired = append(fired, 2) })
	e.Run(Second)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("order = %v", fired)
	}
	if e.Now() != Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Do(5*Millisecond, func() { fired = append(fired, i) })
	}
	e.Run(Second)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", fired)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Do(100*Millisecond, func() { fired = append(fired, e.Now()) })
	e.Do(300*Millisecond, func() { fired = append(fired, e.Now()) })
	n := e.Run(200 * Millisecond)
	if n != 1 || len(fired) != 1 {
		t.Fatalf("events before horizon = %d", n)
	}
	if e.Now() != 200*Millisecond {
		t.Fatalf("clock = %v", e.Now())
	}
	// Resume past the horizon.
	n = e.Run(Second)
	if n != 1 || len(fired) != 2 || fired[1] != 300*Millisecond {
		t.Fatalf("resume fired %d events at %v", n, fired)
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Do(10*Millisecond, func() {
		e.Do(e.Now()+5*Millisecond, func() { fired = append(fired, e.Now()) })
	})
	e.Run(Second)
	if len(fired) != 1 || fired[0] != 15*Millisecond {
		t.Fatalf("nested schedule fired at %v", fired)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Do(time10ms(), func() {})
	e.Run(Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Do(5*Millisecond, func() {})
}

func time10ms() Time { return 10 * Millisecond }

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Do(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(Second)
	if count != 3 {
		t.Fatalf("processed %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := e.Every(0, 100*Millisecond, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			e.Stop()
		}
	})
	e.Run(Second)
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, tt := range ticks {
		if tt != Time(i)*100*Millisecond {
			t.Fatalf("tick %d at %v", i, tt)
		}
	}
	tk.Stop()
	before := e.Pending()
	if before != 0 {
		t.Fatalf("pending after ticker stop = %d", before)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(0, 10*Millisecond, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run(Second)
	if n != 2 {
		t.Fatalf("ticker fired %d times after self-stop", n)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine(seed)
		var draws []float64
		e.Every(0, Millisecond, func(Time) { draws = append(draws, e.Rand().Float64()) })
		e.Run(10 * Millisecond)
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different draws")
		}
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.Do(Time(d%1_000_000)*Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run(MaxTime - 1)
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
