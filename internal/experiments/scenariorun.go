package experiments

import (
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
)

// RunScenario executes a general declarative scenario (schema v2) end to end
// and renders the standard panels as one table: a row per measured core link
// (time-averaged queue, drop and mark rates, utilization) followed by a row
// per flow group (per-flow goodput share of core capacity, Jain fairness;
// page/object counts for web groups). This is the engine behind
// `pertsim -config` for v2 files — mixed-scheme, multi-bottleneck runs need
// no Go code.
//
// The run goes through the one executor, cut into spec.EffectiveShards()
// domains (serial = a group of one); the notes mention shards — count,
// per-shard event totals, any clamp — only when that count exceeds one.
func RunScenario(spec scenario.Spec) (*Table, error) {
	x, err := start(spec)
	if err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = "scenario"
	}
	x.audit(netem.AuditConfig{
		Scenario: fmt.Sprintf("scenario %s template=%s groups=%d", name, spec.Topology.Template, len(spec.Groups)),
	})
	x.Spawn()

	until := spec.MeasureUntil
	if until == 0 {
		until = spec.Duration
	}
	x.g.Run(spec.MeasureFrom)
	w := x.open()

	// Fluid background groups: sample the modeled backlog and arrival rate
	// over the window on the same cadence as the queue monitors. Scenarios
	// without fluid groups create no ticker here — the fluid-off path must
	// stay event-identical to the pre-hybrid runner.
	type fluidSample struct {
		backlog, rate stats.Series
	}
	fmons := map[int]*fluidSample{}
	for i, g := range x.Groups {
		if g.Fluid != nil {
			fmons[i] = &fluidSample{}
		}
	}
	if len(fmons) > 0 {
		// Fluid groups are single-domain (Validate rejects them above one
		// shard), so engine 0 owns the sources sampled here.
		x.Eng.Every(x.Eng.Now(), 10*sim.Millisecond, func(sim.Time) {
			for i, m := range fmons {
				m.backlog.Add(x.Groups[i].Fluid.Backlog())
				m.rate.Add(x.Groups[i].Fluid.Rate())
			}
		})
	}

	x.g.Run(until)
	t := &Table{
		ID:    name,
		Title: fmt.Sprintf("Scenario %s (%s, %d groups, buffer %d pkts)", name, spec.Topology.Template, len(spec.Groups), x.Topo.BufferPkts()),
		Header: []string{"row", "avg_queue_pkts", "drop_rate", "mark_rate", "utilization",
			"goodput_share_per_flow", "jain"},
	}
	window := (until - spec.MeasureFrom).Seconds()
	pkt := spec.Topology.PktSize
	if pkt == 0 {
		pkt = 1040
	}
	capacityBytes := x.Topo.CapacityPPS() * float64(pkt) * window
	measured := x.Topo.Measured()
	for i, p := range w.close() {
		t.AddRow("link "+measured[i].Name, f2(p.avgQueue), sci(p.dropRate),
			sci(p.markRate), f3(p.utilization), "-", "-")
	}
	for i, g := range x.Groups {
		label := "group " + g.Label()
		if m, ok := fmons[i]; ok {
			// Modeled aggregate: its queue share, rate as a utilization
			// fraction, and per-flow share of core capacity.
			cpps := g.Fluid.Params().C
			t.AddRow(label, f2(m.backlog.Mean()), "-", "-",
				f3(m.rate.Mean()/cpps), sci(m.rate.Mean()/cpps/g.Fluid.Flows()), "-")
			continue
		}
		if len(g.Flows) > 0 {
			t.AddRow(label, "-", "-", "-", "-", f3(w.share(i, capacityBytes)), f3(stats.Jain(w.goodputs(i))))
		} else if len(g.Webs) > 0 {
			// Session counters are owned by each session's shard; reading
			// them is safe because the group is quiescent between windows.
			var pages, objects uint64
			for _, w := range g.Webs {
				pages += w.Pages
				objects += w.Objects
			}
			t.AddRow(label, "-", "-", "-", "-",
				fmt.Sprintf("%d pages", pages), fmt.Sprintf("%d objects", objects))
		}
	}
	x.g.Run(spec.Duration)
	if err := x.finish(); err != nil {
		return nil, fmt.Errorf("scenario %s %w", name, err)
	}
	t.Notes = append(t.Notes,
		"goodput_share_per_flow = mean per-flow goodput as a fraction of core capacity over the window")
	if n := x.Net.Domains(); n > 1 {
		// The load-balance evidence the benchmark reads.
		t.Notes = append(t.Notes, fmt.Sprintf("shards=%d events_per_shard=%v", n, x.g.EventCounts()))
		if _, clamped, max := spec.ShardClamp(); clamped {
			t.Notes = append(t.Notes,
				fmt.Sprintf("requested shards=%d clamped to the topology maximum %d", spec.Shards, max))
		}
	}
	return t, nil
}
