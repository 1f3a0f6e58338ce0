package experiments

import (
	"fmt"

	"pert/internal/netem"
	"pert/internal/scenario"
	"pert/internal/sim"
	"pert/internal/stats"
	"pert/internal/trafficgen"
)

// execution is the one way this package runs a scenario. A serial run is a
// shard group of one — ShardGroup.Run with one shard is a direct Engine.Run
// call and a one-shard Partition moves nothing — so there is no second path.
//
// Each step consumes engine sequence numbers, and their order is the
// bit-identity contract with the committed tables, so callers take them
// explicitly: start (compile → partition) → [metrics registry] → audit →
// [Instrument, delay monitor] → Spawn → g.Run/open/close … → finish.
// Observers are created and read on the caller's goroutine at the quiescent
// points between g.Run calls, so assembling a table needs no locking.
type execution struct {
	*scenario.Instance
	g   *sim.ShardGroup
	aud *netem.Auditor
}

// start builds the spec's network on engine 0 of a group of
// spec.EffectiveShards() engines and cuts it along the template's hint.
func start(spec scenario.Spec) (*execution, error) {
	g := sim.NewShardGroup(spec.EffectiveShards(), spec.Seed)
	net := netem.NewNetwork(g.Engine(0))
	inst, err := scenario.Compile(g.Engine(0), net, spec)
	if err != nil {
		return nil, err
	}
	if err := net.Partition(g, inst.Topo.PartitionHint(g.N())); err != nil {
		return nil, err
	}
	return &execution{Instance: inst, g: g}, nil
}

// mustStart is start for specs assembled by the experiments themselves.
func mustStart(spec scenario.Spec) *execution {
	x, err := start(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return x
}

// audit attaches the invariant auditor every run carries (a violation panics
// with the repro bundle; the run harness turns that into a per-run error),
// tracing the measured links and bounding their queues, and those of the
// bounded links, at the buffer size.
func (x *execution) audit(cfg netem.AuditConfig, bounded ...*netem.Link) {
	cfg.Seed = x.Spec.Seed
	x.aud = netem.StartAudit(x.Net, cfg)
	for _, ml := range x.Topo.Measured() {
		x.aud.Watch(ml.Link)
		x.aud.BoundQueue(ml.Link, x.Topo.BufferPkts())
	}
	for _, l := range bounded {
		x.aud.BoundQueue(l, x.Topo.BufferPkts())
	}
}

// finish stops the auditor and checks the whole-network ledger — the one
// check a partitioned run cannot make while its shards are running.
func (x *execution) finish() error {
	x.aud.Stop() // every run carries the auditor; a nil one is a bug in the caller
	if err := x.Net.Audit(); err != nil {
		return fmt.Errorf("shards=%d: %w", x.Net.Domains(), err)
	}
	return nil
}

// mustFinish is finish for callers with no error return: a broken ledger is
// as fatal at the end of a run as the auditor's panic is in the middle.
func (x *execution) mustFinish(scenarioLine string) {
	if err := x.finish(); err != nil {
		panic(fmt.Sprintf("experiments: %s %v", scenarioLine, err))
	}
}

// window is one open measurement window: a meter and a 10 ms queue monitor
// per measured link, each on the engine owning the link (anywhere else would
// race with the owning shard), and a goodput snapshot per flow group.
type window struct {
	x      *execution
	meters []*stats.Meter
	qmons  []*stats.QueueMonitor
	snaps  [][]uint64
}

// linkPanel is one link's measurements over a window.
type linkPanel struct {
	avgQueue, dropRate, markRate, utilization float64
}

// open starts a measurement window at the current time.
func (x *execution) open() *window {
	now := x.Eng.Now()
	w := &window{x: x}
	for _, ml := range x.Topo.Measured() {
		m := stats.NewMeter(ml.Link)
		m.Start(now)
		w.meters = append(w.meters, m)
		w.qmons = append(w.qmons, stats.MonitorQueue(ml.Link.From.Engine(), ml.Link, now, 10*sim.Millisecond))
	}
	for _, g := range x.Groups {
		w.snaps = append(w.snaps, trafficgen.GoodputSnapshot(g.Flows))
	}
	return w
}

// close ends the window at the current time: it stops the queue monitors and
// returns one panel per measured link.
func (w *window) close() []linkPanel {
	now := w.x.Eng.Now()
	out := make([]linkPanel, len(w.meters))
	for i, m := range w.meters {
		out[i] = linkPanel{w.qmons[i].Series.Mean(), m.DropRate(), m.MarkRate(), m.Utilization(now)}
		w.qmons[i].Stop()
	}
	return out
}

// goodputs returns group i's per-flow goodput (bytes) since open.
func (w *window) goodputs(i int) []float64 {
	return trafficgen.Goodputs(w.x.Groups[i].Flows, w.snaps[i])
}

// share returns group i's mean per-flow goodput since open as a fraction of
// capacityBytes (0 for an empty group).
func (w *window) share(i int, capacityBytes float64) float64 {
	goodputs := w.goodputs(i)
	if len(goodputs) == 0 {
		return 0
	}
	var sum float64
	for _, b := range goodputs {
		sum += b
	}
	return sum / capacityBytes / float64(len(goodputs))
}
