package trafficgen

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
)

func TestParetoMeanAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var sum float64
	big := 0
	for i := 0; i < n; i++ {
		x := Pareto(rng, 1.5, 12)
		if x <= 0 {
			t.Fatal("non-positive Pareto draw")
		}
		if x > 120 {
			big++
		}
		sum += x
	}
	mean := sum / n
	if mean < 10 || mean > 14 {
		t.Fatalf("Pareto mean = %v, want ~12", mean)
	}
	// Heavy tail: P(X > 10*mean) = (xm/120)^1.5 = (4/120)^1.5 ~ 0.6%.
	frac := float64(big) / n
	if frac < 0.002 || frac > 0.02 {
		t.Fatalf("tail fraction = %v", frac)
	}
}

func TestParetoMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xm := 12.0 * (1.2 - 1) / 1.2
	for i := 0; i < 10000; i++ {
		if x := Pareto(rng, 1.2, 12); x < xm-1e-9 {
			t.Fatalf("draw %v below scale parameter %v", x, xm)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(Exponential(rng, sim.Second))
	}
	mean := sum / n
	if math.Abs(mean-float64(sim.Second)) > 0.02*float64(sim.Second) {
		t.Fatalf("mean = %v", sim.Duration(mean))
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		k := Geometric(rng, 3)
		if k < 1 {
			t.Fatal("geometric draw below 1")
		}
		sum += float64(k)
	}
	mean := sum / n
	if mean < 2.8 || mean > 3.2 {
		t.Fatalf("mean = %v, want ~3", mean)
	}
	if Geometric(rng, 1) != 1 || Geometric(rng, 0.5) != 1 {
		t.Fatal("degenerate mean must return 1")
	}
}

// Property: Uniform stays in range and IDs are unique and increasing.
func TestUniformAndIDsProperty(t *testing.T) {
	f := func(maxRaw uint32, n uint8) bool {
		rng := rand.New(rand.NewSource(9))
		max := sim.Duration(maxRaw)
		u := Uniform(rng, max)
		if max <= 0 {
			if u != 0 {
				return false
			}
		} else if u < 0 || u >= max {
			return false
		}
		ids := NewIDs()
		prev := 0
		for i := 0; i < int(n); i++ {
			id := ids.Next()
			if id <= prev {
				return false
			}
			prev = id
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func bed(seed int64) (*sim.Engine, *topo.Dumbbell) {
	eng := sim.NewEngine(seed)
	net := netem.NewNetwork(eng)
	d := topo.NewDumbbell(net, topo.DumbbellConfig{
		Bandwidth: 20e6,
		Delay:     20 * sim.Millisecond,
		Hosts:     4,
		RTTs:      []sim.Duration{60 * sim.Millisecond},
		Queue: func(limit int, _ float64) netem.Discipline {
			return queue.NewDropTail(limit)
		},
	})
	return eng, d
}

func TestFTPFleetRunsAndShares(t *testing.T) {
	eng, d := bed(11)
	ids := NewIDs()
	flows := FTPFleet(d.Net, ids, d.Left, d.Right, 4, FTPConfig{
		CC:          func() tcp.CongestionControl { return tcp.Reno{} },
		StartWindow: 2 * sim.Second,
	})
	eng.Run(10 * sim.Second)
	snap := GoodputSnapshot(flows)
	eng.Run(40 * sim.Second)
	gps := Goodputs(flows, snap)
	var total float64
	for i, g := range gps {
		if g == 0 {
			t.Fatalf("flow %d moved no data", i)
		}
		total += g
	}
	// 30 s at 20 Mbps = 75 MB ceiling; flows should achieve most of it.
	if total < 0.6*75e6 {
		t.Fatalf("aggregate goodput = %v bytes", total)
	}
}

func TestWebSessionLifecycle(t *testing.T) {
	eng, d := bed(12)
	ids := NewIDs()
	cfg := WebConfig{MeanThink: 200 * sim.Millisecond}
	sessions := WebFleet(d.Net, ids, d.Left, d.Right, 8, cfg, sim.Second)
	eng.Run(60 * sim.Second)
	var pages, objects uint64
	for _, s := range sessions {
		pages += s.Pages
		objects += s.Objects
	}
	if pages < 100 {
		t.Fatalf("only %d pages in 60 s across 8 sessions", pages)
	}
	if objects < pages {
		t.Fatalf("objects %d < pages %d", objects, pages)
	}
	// Transfers complete and detach: the demux tables must not grow without
	// bound (each node hosts at most one in-flight flow per session).
	for _, s := range sessions {
		s.Stop()
	}
}

func TestWebSessionStopsCleanly(t *testing.T) {
	eng, d := bed(13)
	ids := NewIDs()
	s := StartWebSession(d.Net, ids, d.Left[0], d.Right[0], WebConfig{MeanThink: 100 * sim.Millisecond}, 0)
	eng.Run(5 * sim.Second)
	s.Stop()
	pagesAtStop := s.Pages
	eng.Run(30 * sim.Second)
	if s.Pages > pagesAtStop+1 {
		t.Fatalf("session kept fetching after Stop: %d -> %d", pagesAtStop, s.Pages)
	}
}

// TestSequentialDefaultUnchanged: a session fetches its pages' objects one
// at a time, as the classic model does — each fetch starts only once the
// previous object has completed.
func TestSequentialDefaultUnchanged(t *testing.T) {
	eng, d := bed(23)
	started, completed := 0, 0
	s := StartWebSession(d.Net, NewIDs(), d.Left[0], d.Right[0], WebConfig{
		MeanThink:      100 * sim.Millisecond,
		ObjectsPerPage: 6,
		CC: func() tcp.CongestionControl {
			if started != completed {
				t.Fatalf("object %d started with %d still in flight", started+1, started-completed)
			}
			started++
			return tcp.Reno{}
		},
		OnObject: func(int64, sim.Duration) { completed++ },
	}, 0)
	eng.Run(30 * sim.Second)
	if s.Pages < 10 || uint64(completed) < s.Pages {
		t.Fatalf("premise: %d pages, %d objects completed", s.Pages, completed)
	}
}

func TestWebTrafficIsBursty(t *testing.T) {
	// Sanity-check the heavy tail reaches the wire: object sizes requested
	// over a long run should include some far above the mean.
	eng, d := bed(14)
	ids := NewIDs()
	s := StartWebSession(d.Net, ids, d.Left[0], d.Right[0], WebConfig{MeanThink: 50 * sim.Millisecond}, 0)
	eng.Run(120 * sim.Second)
	if s.Objects < 50 {
		t.Fatalf("only %d objects", s.Objects)
	}
	meanSegs := float64(s.SegsRequested) / float64(s.Objects)
	if meanSegs < 5 || meanSegs > 60 {
		t.Fatalf("mean object = %v segs", meanSegs)
	}
}

// TestWebSessionAllocBudget: a session recycles its transfers, so once its
// first page is done it allocates nothing per object. The budget leaves room
// for amortized growth: the demux maps churn through a new flow ID per
// object, and the engine's slices and the packet pool grow to their
// high-water marks. The window cap bounds the last: uncapped, every new
// largest object of the heavy-tailed mix would raise it.
func TestWebSessionAllocBudget(t *testing.T) {
	eng := sim.NewEngine(21)
	net := netem.NewNetwork(eng)
	a, b := net.AddNode(), net.AddNode()
	net.AddDuplexLink(a, b, 100e6, 5*sim.Millisecond, queue.NewDropTail(1000), queue.NewDropTail(1000))
	net.ComputeRoutes()
	done := 0
	s := StartWebSession(net, NewIDs(), a, b, WebConfig{
		MeanThink: 20 * sim.Millisecond,
		Conn:      tcp.Config{MaxCwnd: 16},
		OnObject:  func(int64, sim.Duration) { done++ },
	}, 0)
	for s.Pages < 2 {
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	const objects = 2000
	first := done
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for done-first < objects {
		eng.Run(eng.Now() + sim.Second)
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(done-first); per >= 0.1 {
		t.Fatalf("%.3f heap objects per web object over %d objects, budget is 0.1", per, done-first)
	}
}
