package netem

import (
	"strings"
	"testing"

	"pert/internal/obs"
	"pert/internal/sim"
)

func TestAuditCleanRun(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	aud := StartAudit(net, AuditConfig{Seed: 3, Scenario: "clean run",
		Interval: sim.Millisecond,
		OnViolation: func(v *ViolationError) {
			t.Fatalf("clean run flagged: %v", v)
		}})
	aud.Watch(ab)
	aud.BoundQueue(ab, 60)
	s := flood(eng, net, a, b, 50)
	aud.Check()
	if len(s.got) != 50 {
		t.Fatalf("delivered %d", len(s.got))
	}
	c := net.Conservation()
	if c.Injected != 50 || c.Delivered != 50 || c.Dropped != 0 {
		t.Fatalf("ledger: %+v", c)
	}
	if c.Queued != 0 || c.Transmitting != 0 || c.InFlight != 0 {
		t.Fatalf("occupancy after drain: %+v", c)
	}
}

func TestAuditViolationCarriesReproBundle(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 77, Scenario: "corrupted ledger",
		OnViolation: func(v *ViolationError) { got = v }})
	aud.Watch(ab)
	flood(eng, net, a, b, 10)

	// Corrupt the ledger the way a lost-packet bug would: a packet that was
	// injected but never reached any other column.
	net.doms[0].acct.Injected++
	aud.Check()

	if got == nil {
		t.Fatal("violation not reported")
	}
	if !strings.Contains(got.Violation, "conservation") {
		t.Fatalf("violation: %q", got.Violation)
	}
	if got.Seed != 77 || got.Scenario != "corrupted ledger" {
		t.Fatalf("bundle identity: %+v", got)
	}
	if len(got.Trace) == 0 {
		t.Fatal("bundle has no trailing trace")
	}
	msg := got.Error()
	for _, want := range []string{"repro bundle", "seed=77", `scenario="corrupted ledger"`, "trailing trace"} {
		if !strings.Contains(msg, want) {
			t.Errorf("bundle text missing %q:\n%s", want, msg)
		}
	}
	// Trace lines use the Tracer format, so they re-parse.
	if _, err := ReadTrace(strings.NewReader(strings.Join(got.Trace, "\n"))); err != nil {
		t.Fatalf("bundle trace not parseable: %v", err)
	}
}

func TestAuditDefaultPanicsWithBundle(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, _ := line(eng, 8e6, 0, 60)
	aud := StartAudit(net, AuditConfig{Seed: 5, Scenario: "panics"})
	flood(eng, net, a, b, 3)
	net.doms[0].acct.Delivered++ // corrupt
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on violation")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "repro bundle: seed=5") {
			t.Fatalf("panic payload: %v", r)
		}
	}()
	aud.Check()
}

func TestAuditQueueBound(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 0, 50)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "bound",
		OnViolation: func(v *ViolationError) { got = v }})
	aud.BoundQueue(ab, 2)
	b.AttachFlow(1, &sink{})
	// 1 in service + 5 queued: exceeds the declared bound of 2.
	for i := 0; i < 6; i++ {
		net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID, Size: 1000})
	}
	aud.Check()
	if got == nil || !strings.Contains(got.Violation, "queue bound exceeded") {
		t.Fatalf("violation: %+v", got)
	}
}

func TestAuditTimeMonotonicity(t *testing.T) {
	eng := sim.NewEngine(3)
	net, _, _, _ := line(eng, 8e6, 0, 10)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "clock",
		OnViolation: func(v *ViolationError) { got = v }})
	aud.scopes[0].check(5 * sim.Millisecond)
	if got != nil {
		t.Fatalf("forward sample flagged: %v", got)
	}
	aud.scopes[0].check(3 * sim.Millisecond)
	if got == nil || !strings.Contains(got.Violation, "backwards") {
		t.Fatalf("violation: %+v", got)
	}
}

func TestAuditTraceRingWraps(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 0, 100)
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "ring", TraceDepth: 4,
		OnViolation: func(v *ViolationError) { got = v }})
	aud.Watch(ab)
	flood(eng, net, a, b, 10) // 20 ring events (enqueue+depart per packet)
	net.doms[0].acct.Injected++
	aud.Check()
	if got == nil {
		t.Fatal("no violation")
	}
	if len(got.Trace) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got.Trace))
	}
	// Oldest first: the last ring entries are the final departures.
	if !strings.HasPrefix(got.Trace[3], "-") {
		t.Fatalf("ring order wrong: %v", got.Trace)
	}
}

func TestAuditorStopSilences(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, _ := line(eng, 8e6, 0, 60)
	violations := 0
	aud := StartAudit(net, AuditConfig{Seed: 1, Scenario: "stopped",
		Interval:    sim.Millisecond,
		OnViolation: func(*ViolationError) { violations++ }})
	aud.Stop()
	net.doms[0].acct.Injected++ // corrupt before any traffic
	flood(eng, net, a, b, 5)
	if violations != 0 {
		t.Fatalf("stopped auditor still fired %d times", violations)
	}
}

func TestAuditViolationCarriesFlightDump(t *testing.T) {
	eng := sim.NewEngine(3)
	net, a, b, ab := line(eng, 8e6, 5*sim.Millisecond, 60)
	fl := obs.NewFlight("test scenario", 8)
	fl.Record(obs.Point{T: 0.1, Series: "queue.len", Value: 3})
	fl.Record(obs.Point{T: 0.2, Series: "queue.len", Value: 5})
	var got *ViolationError
	aud := StartAudit(net, AuditConfig{Seed: 9, Scenario: "with flight",
		MetricsDump: fl.Dump,
		OnViolation: func(v *ViolationError) { got = v }})
	aud.Watch(ab)
	flood(eng, net, a, b, 10)
	net.doms[0].acct.Injected++ // corrupt
	aud.Check()

	if got == nil {
		t.Fatal("violation not reported")
	}
	if len(got.Metrics) != 3 { // header + 2 points
		t.Fatalf("flight dump has %d lines, want 3: %v", len(got.Metrics), got.Metrics)
	}
	msg := got.Error()
	for _, want := range []string{"flight recorder:", `flight "test scenario"`,
		"t=0.100000 queue.len=3", "t=0.200000 queue.len=5"} {
		if !strings.Contains(msg, want) {
			t.Errorf("bundle text missing %q:\n%s", want, msg)
		}
	}
	// Without MetricsDump the section is absent entirely.
	eng2 := sim.NewEngine(3)
	net2, _, _, _ := line(eng2, 8e6, 0, 60)
	var bare *ViolationError
	aud2 := StartAudit(net2, AuditConfig{Seed: 9, Scenario: "no flight",
		OnViolation: func(v *ViolationError) { bare = v }})
	net2.doms[0].acct.Injected++
	aud2.Check()
	if bare == nil {
		t.Fatal("second auditor saw no violation")
	}
	if strings.Contains(bare.Error(), "flight recorder") {
		t.Errorf("bundle without MetricsDump mentions the flight recorder")
	}
}

// TestAuditPartitioned: on a 2-domain network one StartAudit ticks on both
// shard engines while the group runs, Watch and BoundQueue land on the domain
// owning the link without the caller naming it, and a corrupted ledger — which
// no domain can see mid-run — is reported by the close-time Audit. On a
// 1-domain group the same corruption still aborts mid-run with the bundle.
func TestAuditPartitioned(t *testing.T) {
	run := func(shards int, assign []int, onViolation func(*ViolationError)) (*Network, *Auditor, []*Node) {
		g := sim.NewShardGroup(shards, 1)
		net, nodes := buildChain(g.Engine(0), 2*sim.Millisecond)
		h := &countHandler{}
		nodes[3].AttachFlow(1, h)
		if err := net.Partition(g, assign); err != nil {
			t.Fatal(err)
		}
		aud := StartAudit(net, AuditConfig{Seed: 8, Scenario: "partitioned", Interval: sim.Millisecond,
			OnViolation: onViolation})
		for i := 0; i < 3; i++ {
			l := nodes[i].LinkTo(nodes[i+1].ID)
			aud.Watch(l)
			aud.BoundQueue(l, 100)
		}
		src := nodes[0]
		for i := 0; i < 50; i++ {
			src.Engine().Do(sim.Time(i)*sim.Millisecond, func() {
				p := src.NewPacket()
				p.Flow, p.Src, p.Dst, p.Size = 1, src.ID, nodes[3].ID, 1000
				net.SendFrom(src, p)
			})
		}
		// A lost-packet bug, 10 ms into the run, on the shard owning domain 0.
		src.Engine().Do(10*sim.Millisecond, func() { net.doms[0].acct.Injected++ })
		g.Run(200 * sim.Millisecond)
		if h.n != 50 {
			t.Fatalf("shards=%d: delivered %d of 50", shards, h.n)
		}
		return net, aud, nodes
	}

	net, aud, _ := run(2, []int{0, 0, 1, 1}, func(v *ViolationError) {
		t.Errorf("a domain tick saw the cross-domain ledger: %v", v)
	})
	if len(aud.scopes) != 2 {
		t.Fatalf("%d scopes on a 2-domain network", len(aud.scopes))
	}
	for d, want := range []int{2, 1} { // a->b and b->c are domain 0's, c->d domain 1's
		s := aud.scopes[d]
		if len(s.bounds) != want || s.next == 0 || s.last == 0 {
			t.Errorf("domain %d: %d bounds (want %d), %d ring events, last tick %v", d, len(s.bounds), want, s.next, s.last)
		}
	}
	aud.Stop()
	if err := net.Audit(); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("close-time Audit on a corrupted 2-domain ledger: %v", err)
	}

	var got *ViolationError
	run(1, []int{0, 0, 0, 0}, func(v *ViolationError) {
		if got == nil {
			got = v
		}
	})
	if got == nil || !strings.Contains(got.Violation, "conservation") {
		t.Fatalf("1-domain corruption not caught mid-run: %+v", got)
	}
	if got.At < 10*sim.Millisecond || got.At > 11*sim.Millisecond || got.Seed != 8 ||
		got.Scenario != "partitioned" || len(got.Trace) == 0 {
		t.Fatalf("bundle: at=%v seed=%d scenario=%q trace=%d lines", got.At, got.Seed, got.Scenario, len(got.Trace))
	}
}
