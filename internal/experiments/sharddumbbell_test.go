package experiments

import (
	"context"
	"reflect"
	"testing"

	"pert/internal/netem"
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
	spec := DumbbellSpec{
		Seed:      77,
		Bandwidth: 10e6,
		RTTs:      []sim.Duration{ms(60)},
		Flows:     6, WebSessions: 8,
		Duration: seconds(20), MeasureFrom: seconds(5), MeasureUntil: seconds(18),
		StartWindow: seconds(2),
		Schedule: netem.LinkSchedule{
			{At: 8 * sim.Second, Capacity: 5e6},
			{At: 12 * sim.Second, Down: true},
			{At: 12*sim.Second + 300*sim.Millisecond, Up: true},
			{At: 14 * sim.Second, Capacity: 10e6},
		},
		Shards: 2,
	}
	for _, s := range []Scheme{SackRED, SackPI, SackREM, SackAVQ, PERTPI} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			first := RunDumbbell(spec, s)
			if first.Utilization <= 0 {
				t.Fatalf("%s moved no traffic", s)
			}
			if again := RunDumbbell(spec, s); !reflect.DeepEqual(first, again) {
				t.Fatalf("%s not deterministic at shards=2:\nfirst: %+v\nagain: %+v", s, first, again)
			}
		})
	}
}

// TestShardDumbbellSerialFallback pins the bottleneck-cut gate and what it
// does to a run: shards<=1 is the group of one; metrics streaming, an
// Instrument hook, an unregistered scheme or a delay-changing schedule bar the
// cut whatever Shards asks, and the result reports the domain count the run
// actually used. The group-of-one run is byte-identical to the frozen
// hand-wired reference at Shards 0 and 1 alike.
func TestShardDumbbellSerialFallback(t *testing.T) {
	base := quickSpec(31)
	base.Shards = 2
	if bar := base.shardBar(string(PERT)); bar != "" {
		t.Fatalf("plain spec barred from the cut by %s", bar)
	}
	if base.shardBar("not-a-registered-scheme") == "" {
		t.Fatal("unregistered scheme not barred")
	}
	delayed := base
	delayed.Schedule = netem.LinkSchedule{{At: sim.Second, Delay: ms(5)}}
	hooked := base
	hooked.Instrument = func(*topo.Dumbbell) {}
	for name, spec := range map[string]DumbbellSpec{"delay-changing schedule": delayed, "Instrument hook": hooked} {
		if spec.shardBar(string(PERT)) == "" {
			t.Fatalf("%s not barred", name)
		}
		if r := RunDumbbell(spec, PERT); r.Domains != 1 {
			t.Fatalf("%s: barred run used %d domains", name, r.Domains)
		}
	}
	if r := RunDumbbell(base, PERT); r.Domains != 2 {
		t.Fatalf("shards=2 run used %d domains", r.Domains)
	}
	if r := RunDumbbellWith(base, func() tcp.CongestionControl { return tcp.NewVegas() }); r.Domains != 1 {
		t.Fatalf("custom-controller run used %d domains", r.Domains)
	}

	base.Shards = 0
	want := legacyRunDumbbellScheme(base, PERT)
	want.Domains = 1 // the frozen reference predates the field
	for _, shards := range []int{0, 1} {
		spec := base
		spec.Shards = shards
		if got := RunDumbbell(spec, PERT); !reflect.DeepEqual(want, got) {
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
	delayed.Schedule = netem.LinkSchedule{{At: 5 * sim.Second, Delay: ms(25)}}
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
