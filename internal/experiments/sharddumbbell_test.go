package experiments

import (
	"context"
	"reflect"
	"testing"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
)

// TestShardDumbbellRouterAQMWebSchedule exercises every feature this PR made
// shard-safe through the real dumbbell runner at shards=2: router AQMs
// (marking RNG rebound to the bottleneck's domain), web sessions crossing the
// cut (lazy sink acceptance on the remote arrival path), and a boundary-link
// schedule with a capacity change and an up/down flap. Each scheme runs
// twice; fixed-N determinism means identical results. The shard-smoke -race
// run of this test is the concurrency assertion for the new arming paths.
func TestShardDumbbellRouterAQMWebSchedule(t *testing.T) {
	spec := cellSpec(77, 10e6, 6, 0, 8, seconds(2))
	spec.Duration, spec.MeasureFrom, spec.MeasureUntil = seconds(20), seconds(5), seconds(18)
	spec.Links[0].Schedule = netem.LinkSchedule{
		{At: 8 * sim.Second, Capacity: 5e6},
		{At: 12 * sim.Second, Down: true},
		{At: 12*sim.Second + 300*sim.Millisecond, Up: true},
		{At: 14 * sim.Second, Capacity: 10e6},
	}
	spec.Shards = 2
	for _, s := range []Scheme{SackRED, SackPI, SackREM, SackAVQ, PERTPI} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			first := runScheme(spec, s)
			if first.Utilization <= 0 {
				t.Fatalf("%s moved no traffic", s)
			}
			if again := runScheme(spec, s); !reflect.DeepEqual(first, again) {
				t.Fatalf("%s not deterministic at shards=2:\nfirst: %+v\nagain: %+v", s, first, again)
			}
		})
	}
}

// TestShardDumbbellSerialFallback pins the bottleneck-cut gate and what it
// does to a run: shards<=1 is the group of one; metrics streaming, an
// Instrument hook, a custom controller or a delay-changing schedule bar the
// cut whatever Shards asks, and the result reports the domain count the run
// actually used. The group-of-one run is byte-identical to the frozen
// hand-wired reference at Shards 0 and 1 alike.
func TestShardDumbbellSerialFallback(t *testing.T) {
	plain := quickSpec(31) // no scheme yet: DropTail, ready for a custom controller
	plain.Shards = 2
	base := PERT.on(plain)
	if bar := (Attachments{}).shardBar(base); bar != "" {
		t.Fatalf("plain spec barred from the cut by %s", bar)
	}
	delayed := base
	delayed.Links = []scenario.LinkRule{{Link: "forward", Schedule: netem.LinkSchedule{{At: sim.Second, Delay: ms(5)}}}}
	hooked := Attachments{Instrument: func(*topo.Dumbbell) {}}
	custom := Attachments{CC: func() tcp.CongestionControl { return tcp.NewVegas() }}
	for name, c := range map[string]struct {
		spec scenario.Spec
		at   Attachments
	}{
		"delay-changing schedule": {delayed, Attachments{}},
		"Instrument hook":         {base, hooked},
		"custom controller":       {plain, custom},
	} {
		if c.at.shardBar(c.spec) == "" {
			t.Fatalf("%s not barred", name)
		}
		if r := RunDumbbell(c.spec, c.at); r.Domains != 1 {
			t.Fatalf("%s: barred run used %d domains", name, r.Domains)
		}
	}
	if r := RunDumbbell(base, Attachments{}); r.Domains != 2 {
		t.Fatalf("shards=2 run used %d domains", r.Domains)
	}

	base.Shards = 0
	want := legacyRunDumbbellScheme(base, Attachments{})
	want.Domains = 1 // the frozen reference predates the field
	for _, shards := range []int{0, 1} {
		spec := base
		spec.Shards = shards
		if got := RunDumbbell(spec, Attachments{}); !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d diverged from the hand-wired reference:\nlegacy: %+v\ngot:    %+v", shards, want, got)
		}
	}
}

// TestSweepShardNoteTellsTheTruth: a sweep's sharding note is derived from
// the domain count each cell's run reports. Without a -shards request there
// is no note; with one, cells that took the cut and cells barred from it
// (here: by metrics streaming) are counted separately and the bar is named.
func TestSweepShardNoteTellsTheTruth(t *testing.T) {
	spec := quickSpecShort(5)
	delayed := spec
	delayed.Links = []scenario.LinkRule{{Link: "forward", Schedule: netem.LinkSchedule{{At: 5 * sim.Second, Delay: ms(25)}}}}
	points := []sweepPoint{{"plain", spec}, {"delayed", delayed}}
	sweep := func(ctx context.Context) []string {
		tab, err := runSweep(ctx, "note-test", "note test", "x", points, []Scheme{PERT, SackDroptail})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Notes
	}
	if notes := sweep(context.Background()); len(notes) != 0 {
		t.Errorf("no -shards request, yet notes: %v", notes)
	}
	if notes := sweep(WithShards(context.Background(), 1)); len(notes) != 0 {
		t.Errorf("-shards 1 is the group of one, yet notes: %v", notes)
	}
	want := "requested shards=4: 2 of 4 cells ran on a dumbbell's 2 domains (see DESIGN.md §9); 2 ran on 1, barred by a delay-changing schedule"
	if notes := sweep(WithShards(context.Background(), 4)); len(notes) != 1 || notes[0] != want {
		t.Errorf("notes = %q\nwant    [%q]", notes, want)
	}
	streamed := WithMetrics(WithShards(context.Background(), 2), MetricsConfig{Dir: t.TempDir()})
	want = "requested shards=2: 0 of 4 cells ran on a dumbbell's 2 domains (see DESIGN.md §9); 4 ran on 1, barred by metrics streaming"
	if notes := sweep(streamed); len(notes) != 1 || notes[0] != want {
		t.Errorf("notes = %q\nwant    [%q]", notes, want)
	}
}
