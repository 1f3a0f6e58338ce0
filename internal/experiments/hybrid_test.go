package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// TestExtHybridEquilibriumConformance is the acceptance gate of the hybrid
// substrate: at quick scale (10^5 modeled background flows over a 10^7 pkt/s
// bottleneck) the window-averaged shared queue must match the fluid-only
// eq. (9) prediction Tq*·C within 10% for both foreground schemes — the ten
// packet flows are a vanishing fraction of the modeled load, so the packet
// coupling must not disturb the analytic equilibrium.
func TestExtHybridEquilibriumConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick-scale hybrid scenario; skipped with -short")
	}
	_, pps := extHybridFlows(Quick)
	_, _, tqStar := extHybridFluidOnly(Quick).Equilibrium()
	qStar := tqStar * pps
	for _, scheme := range []Scheme{PERT, SackDroptail} {
		sub, err := RunScenario(extHybridSpec(Quick, scheme))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		q, ok := hybridQueueCell(sub)
		if !ok {
			t.Fatalf("%s: no forward-link queue cell in %+v", scheme, sub.Rows)
		}
		if off := math.Abs(q-qStar) / qStar; off > 0.10 {
			t.Errorf("%s: shared queue %.0f pkts is %.1f%% off the fluid-only equilibrium %.0f pkts (limit 10%%)",
				scheme, q, 100*off, qStar)
		}
	}
}

// TestExtHybridFluidOffByteIdentity is the experiments-level metamorphic
// guarantee: zeroing the background population must leave a table identical
// byte for byte to the same scenario with the fluid group deleted — the
// hybrid plumbing may not perturb packet-only runs.
func TestExtHybridFluidOffByteIdentity(t *testing.T) {
	run := func(drop bool) string {
		spec := extHybridSpec(Quick, PERT)
		if drop {
			spec.Groups = spec.Groups[:1]
		} else {
			spec.Groups[1].Count = 0
		}
		tab, err := RunScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Compare every measured cell and note; the title legitimately
		// differs (it describes the spec's group count, not the run).
		b, err := json.Marshal(struct {
			H []string
			R [][]string
			N []string
		}{tab.Header, tab.Rows, tab.Notes})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	zeroed, dropped := run(false), run(true)
	if zeroed != dropped {
		t.Errorf("count-0 fluid group perturbed the run\nzeroed:  %s\ndropped: %s", zeroed, dropped)
	}
}

// TestExtHybridSerialOnly pins the sharding contract at the experiment
// level: the scenario behind ext-hybrid must be rejected with a clear error
// — not a panic, not a wrong answer — the moment shards exceed one.
func TestExtHybridSerialOnly(t *testing.T) {
	spec := extHybridSpec(Quick, PERT)
	spec.Shards = 4
	_, err := RunScenario(spec)
	if err == nil {
		t.Fatal("sharded hybrid scenario ran; it must be rejected")
	}
	if !strings.Contains(err.Error(), "serial-only") {
		t.Fatalf("rejection does not explain the restriction: %v", err)
	}
	if testing.Short() {
		return
	}
	// A -shards request on the experiment itself is a documented no-op: the
	// spec never sets Shards, so the registry run must succeed regardless.
	if _, err := ExtHybrid(WithShards(context.Background(), 4), Quick); err != nil {
		t.Fatalf("ext-hybrid with -shards must be a no-op, got %v", err)
	}
}

// TestPartitionOfOneTakesFluidDumbbell: a group of one is the serial run, so
// Partition takes a dumbbell whose bottleneck already carries a fluid source
// and the run reproduces the unpartitioned one exactly — link counters, the
// modeled backlog, and the number of events engine 0 executed.
func TestPartitionOfOneTakesFluidDumbbell(t *testing.T) {
	run := func(partition bool) string {
		spec := extHybridSpec(Quick, PERT)
		spec.Duration, spec.MeasureFrom, spec.MeasureUntil = seconds(4), seconds(1), seconds(3)
		g := sim.NewShardGroup(1, spec.Seed)
		net := netem.NewNetwork(g.Engine(0))
		inst, err := scenario.Compile(g.Engine(0), net, spec)
		if err != nil {
			t.Fatal(err)
		}
		inst.Spawn() // attaches the fluid aggregate to the forward bottleneck
		if partition {
			if err := net.Partition(g, inst.Topo.PartitionHint(1)); err != nil {
				t.Fatalf("one-shard partition of a fluid-carrying dumbbell: %v", err)
			}
		}
		events := g.Run(spec.Duration)
		if err := net.Audit(); err != nil {
			t.Fatal(err)
		}
		fwd := inst.Dumbbell().Forward
		return fmt.Sprintf("%+v backlog=%v rate=%v events=%d", fwd.Stats,
			inst.Groups[1].Fluid.Backlog(), inst.Groups[1].Fluid.Rate(), events)
	}
	whole, cut := run(false), run(true)
	if whole != cut {
		t.Errorf("one-shard partition changed the run\nunpartitioned: %s\npartitioned:   %s", whole, cut)
	}
	if !strings.Contains(whole, "backlog=") || strings.Contains(whole, "backlog=0 ") {
		t.Errorf("fluid source never built a backlog: %s", whole)
	}
}
