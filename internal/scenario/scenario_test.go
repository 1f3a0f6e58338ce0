package scenario

import (
	"strings"
	"testing"

	"pert/internal/netem"
	"pert/internal/sim"
)

func ms(n int) sim.Duration      { return sim.Duration(n) * sim.Millisecond }
func seconds(n int) sim.Duration { return sim.Duration(n) * sim.Second }

// validSpec returns a minimal spec that passes Validate; tests mutate one
// field at a time to probe each rejection.
func validSpec() Spec {
	return Spec{
		Seed: 1,
		Topology: TopologySpec{
			Template:  DumbbellTemplate,
			Bandwidth: 10e6,
		},
		Groups: []FlowGroupSpec{
			{Scheme: "PERT", Count: 2, From: "left", To: "right", StartWindow: seconds(1)},
		},
		Duration:    seconds(10),
		MeasureFrom: seconds(2),
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Spec){
		"zero duration":      func(s *Spec) { s.Duration = 0 },
		"empty window":       func(s *Spec) { s.MeasureFrom = s.Duration },
		"until > duration":   func(s *Spec) { s.MeasureUntil = s.Duration + 1 },
		"until <= from":      func(s *Spec) { s.MeasureUntil = s.MeasureFrom },
		"negative target":    func(s *Spec) { s.TargetDelay = -1 },
		"bad template":       func(s *Spec) { s.Topology.Template = "ring" },
		"no bandwidth":       func(s *Spec) { s.Topology.Bandwidth = 0 },
		"unknown aqm":        func(s *Spec) { s.Topology.AQM = "TURBO" },
		"unknown scheme":     func(s *Spec) { s.Groups[0].Scheme = "TURBO" },
		"no scheme anywhere": func(s *Spec) { s.Groups[0].Scheme = "" },
		"negative count":     func(s *Spec) { s.Groups[0].Count = -1 },
		"no traffic":         func(s *Spec) { s.Groups[0].Count = 0 },
		"bad traffic kind":   func(s *Spec) { s.Groups[0].Traffic = "voip" },
		"negative window":    func(s *Spec) { s.Groups[0].StartWindow = -1 },
		"start_at outside":   func(s *Spec) { s.Groups[0].StartAt = sim.Time(s.Duration + 1) },
		"web with start_at": func(s *Spec) {
			s.Groups[0].Traffic = Web
			s.Groups[0].StartAt = sim.Time(seconds(1))
		},
		"bad endpoint":     func(s *Spec) { s.Groups[0].From = "cloud1" },
		"bad range":        func(s *Spec) { s.Groups[0].From = "left[2:" },
		"inverted range":   func(s *Spec) { s.Groups[0].From = "left[3:1]" },
		"empty range":      func(s *Spec) { s.Groups[0].To = "right[0:0]" },
		"range past hosts": func(s *Spec) { s.Topology.Hosts = 2; s.Groups[0].To = "right[0:5]" },
		"bad link":         func(s *Spec) { s.Links = []LinkRule{{Link: "core1"}} },
		"loss >= 1":        func(s *Spec) { s.Links = []LinkRule{{Link: "forward", LossRate: 1}} },
		"negative dup":     func(s *Spec) { s.Links = []LinkRule{{Link: "forward", DupRate: -0.1}} },
		"negative extra":   func(s *Spec) { s.Links = []LinkRule{{Link: "forward", ReorderExtra: -1}} },
		"schedule outside": func(s *Spec) {
			s.Links = []LinkRule{{Link: "forward", Schedule: netem.LinkSchedule{
				{At: sim.Time(s.Duration + 1), Capacity: 1e6},
			}}}
		},
		"schedule down+up": func(s *Spec) {
			s.Links = []LinkRule{{Link: "forward", Schedule: netem.LinkSchedule{
				{At: sim.Time(seconds(1)), Down: true, Up: true},
			}}}
		},
	}
	for name, mutate := range cases {
		s := validSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateParkingLot(t *testing.T) {
	s := Spec{
		Seed:     1,
		Topology: TopologySpec{Template: ParkingLotTemplate, Routers: 4, CloudSize: 4},
		Groups: []FlowGroupSpec{
			{Scheme: "PERT", Count: 2, From: "cloud1", To: "cloud4"},
		},
		Duration:    seconds(10),
		MeasureFrom: seconds(2),
		Links:       []LinkRule{{Link: "core2"}, {Link: "rcore3"}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Spec){
		"cloud index high": func(s *Spec) { s.Groups[0].To = "cloud5" },
		"cloud index zero": func(s *Spec) { s.Groups[0].From = "cloud0" },
		"not a cloud":      func(s *Spec) { s.Groups[0].From = "left" },
		"core index high":  func(s *Spec) { s.Links = []LinkRule{{Link: "core4"}} },
		"one router":       func(s *Spec) { s.Topology.Routers = 1 },
		"range past cloud": func(s *Spec) { s.Groups[0].From = "cloud1[0:9]" },
	} {
		bad := s
		bad.Groups = append([]FlowGroupSpec(nil), s.Groups...)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSelector(t *testing.T) {
	for _, tc := range []struct {
		in       string
		base     string
		lo, hi   int
		hasRange bool
	}{
		{"left", "left", 0, 0, false},
		{"cloud12", "cloud12", 0, 0, false},
		{"left[0:4]", "left", 0, 4, true},
		{"cloud3[2:2]", "cloud3", 2, 2, true},
	} {
		sel, err := parseSelector(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if sel.base != tc.base || sel.lo != tc.lo || sel.hi != tc.hi || sel.hasRange != tc.hasRange {
			t.Fatalf("%s parsed as %+v", tc.in, sel)
		}
	}
	for _, bad := range []string{"left[", "left[1]", "left[a:2]", "left[1:b]", "left[-1:2]", "left[3:1]"} {
		if _, err := parseSelector(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

func TestQueueSchemeFallback(t *testing.T) {
	s := validSpec()
	if s.queueScheme() != "PERT" {
		t.Fatalf("queueScheme = %q", s.queueScheme())
	}
	s.Topology.AQM = "Sack/RED-ECN"
	if s.queueScheme() != "Sack/RED-ECN" {
		t.Fatal("explicit AQM ignored")
	}
}

func TestDeriveEnv(t *testing.T) {
	s := validSpec()
	s.Topology.RTTs = []sim.Duration{ms(60), ms(100)}
	s.Groups = append(s.Groups, FlowGroupSpec{
		Scheme: "PERT", Count: 3, From: "left", To: "right", Traffic: Web,
	})
	env := s.env()
	if env.NFlows != 2 { // web groups don't count toward the long-flow bound
		t.Fatalf("NFlows = %d", env.NFlows)
	}
	if env.MaxRTT != ms(100) {
		t.Fatalf("MaxRTT = %v", env.MaxRTT)
	}
	if want := 10e6 / (8 * 1040.0); env.CapacityPPS != want {
		t.Fatalf("CapacityPPS = %v, want %v", env.CapacityPPS, want)
	}
}

func TestImpairSeed(t *testing.T) {
	if impairSeed(42, 0) != 42^0xfa017 {
		t.Fatal("rule 0 must keep the historical seed")
	}
	if impairSeed(42, 1) == impairSeed(42, 2) {
		t.Fatal("rules share a fault stream")
	}
}

func TestCompileResolvesEndpoints(t *testing.T) {
	eng := sim.NewEngine(7)
	net := netem.NewNetwork(eng)
	s := validSpec()
	s.Topology.Hosts = 8
	s.Groups = []FlowGroupSpec{
		{Scheme: "PERT", Count: 3, From: "left[0:4]", To: "right[0:4]"},
		{Scheme: "Sack/Droptail", Count: 2, From: "left[4:8]", To: "right[4:8]"},
	}
	inst, err := Compile(eng, net, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Groups) != 2 {
		t.Fatalf("groups = %d", len(inst.Groups))
	}
	for i, g := range inst.Groups {
		if len(g.Src) != 4 || len(g.Dst) != 4 {
			t.Fatalf("group %d endpoints = %d/%d", i, len(g.Src), len(g.Dst))
		}
		if g.CC == nil {
			t.Fatalf("group %d: no controller resolved", i)
		}
	}
	if inst.Groups[1].Conn.ECN {
		t.Fatal("Sack/Droptail negotiated ECN")
	}
	if inst.Dumbbell() == nil || inst.ParkingLot() != nil {
		t.Fatal("template handles wrong")
	}
	if got := inst.Topo.Measured(); len(got) != 1 || got[0].Name != "forward" {
		t.Fatalf("Measured = %+v", got)
	}
	inst.Spawn()
	if len(inst.Groups[0].Flows) != 3 || len(inst.Groups[1].Flows) != 2 {
		t.Fatalf("spawn handles = %d/%d", len(inst.Groups[0].Flows), len(inst.Groups[1].Flows))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Spawn accepted")
		}
	}()
	inst.Spawn()
}

func TestCompileRejectsInvalid(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netem.NewNetwork(eng)
	s := validSpec()
	s.Duration = 0
	if _, err := Compile(eng, net, s); err == nil {
		t.Fatal("invalid spec compiled")
	}
}

func TestWebGroupUsesRenoUnlessProactive(t *testing.T) {
	eng := sim.NewEngine(7)
	net := netem.NewNetwork(eng)
	s := validSpec()
	s.Groups = append(s.Groups, FlowGroupSpec{
		Scheme: "Sack/RED-ECN", Count: 2, From: "left", To: "right",
		Traffic: Web, StartWindow: seconds(1),
	})
	inst, err := Compile(eng, net, s)
	if err != nil {
		t.Fatal(err)
	}
	// Sack/RED-ECN is not ProactiveWeb: its web sessions run standard TCP.
	if MustLookup("Sack/RED-ECN").ProactiveWeb {
		t.Fatal("test premise broken: Sack/RED-ECN became ProactiveWeb")
	}
	if inst.Groups[1].CC == nil {
		t.Fatal("web group has no controller")
	}
}

// TestValidateRTTBelowTwiceDelay: a dumbbell path crosses the bottleneck
// twice, so an RTT below twice the effective bottleneck delay (Delay, or
// RTTs[0]/3 when unset) cannot be realized. Validate rejects it instead of
// letting the topology stretch it to that floor; the floor itself is fine.
func TestValidateRTTBelowTwiceDelay(t *testing.T) {
	for _, c := range []struct {
		delay sim.Duration
		rtts  []sim.Duration
		ok    bool
	}{
		{20 * sim.Millisecond, []sim.Duration{10 * sim.Millisecond}, false},
		{0, []sim.Duration{120 * sim.Millisecond, 12 * sim.Millisecond}, false},
		{20 * sim.Millisecond, []sim.Duration{60 * sim.Millisecond, 39 * sim.Millisecond}, false},
		{20 * sim.Millisecond, []sim.Duration{60 * sim.Millisecond, 40 * sim.Millisecond}, true},
		{0, []sim.Duration{60 * sim.Millisecond, 40 * sim.Millisecond}, true},
		{0, []sim.Duration{12 * sim.Millisecond, 120 * sim.Millisecond}, true},
	} {
		s := validSpec()
		s.Topology.Delay, s.Topology.RTTs = c.delay, c.rtts
		err := s.Validate()
		if c.ok != (err == nil) {
			t.Errorf("delay %v rtts %v: err = %v, want ok=%v", c.delay, c.rtts, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "bottleneck delay") {
			t.Errorf("delay %v rtts %v: error does not name the bottleneck delay: %v", c.delay, c.rtts, err)
		}
	}
}
