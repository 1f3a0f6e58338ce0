// Package topo builds the evaluation topologies of the paper: the single-
// bottleneck dumbbell used throughout Section 4, the six-router parking-lot
// of Figure 10, and the Section 2 trace-collection topology. Builders create
// nodes, links, and queues only; traffic (internal/tcp, internal/trafficgen)
// is attached by the caller.
package topo

import (
	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/sim"
)

// QueueFactory builds one queue-discipline instance per link direction. The
// capacityPPS argument is the serving link's rate in packets per second
// (needed by RED/PI parameter rules); limit is the requested buffer size in
// packets.
type QueueFactory func(limit int, capacityPPS float64) netem.Discipline

// Every dumbbell access link runs at the paper's Section 2 host rate behind
// a drop-tail buffer generous enough never to be the bottleneck.
const (
	accessBandwidth = 500e6 // bits/s
	accessBuffer    = 10000 // packets
)

// DumbbellConfig describes a single-bottleneck dumbbell: Hosts source hosts
// on the left, Hosts destination hosts on the right, two routers in the
// middle.
//
//	L0 ─┐                   ┌─ R0
//	L1 ─┤── R1 ══════ R2 ───├─ R1'
//	LN ─┘   (bottleneck)    └─ RN'
type DumbbellConfig struct {
	Bandwidth float64      // bottleneck rate, bits/s
	Delay     sim.Duration // bottleneck one-way propagation delay

	Hosts int // host pairs

	// RTTs lists the end-to-end (two-way) propagation delay per host pair;
	// access-link delays are derived to realize them. A single-element
	// slice applies to every pair. Each RTT must be at least 2*Delay.
	RTTs []sim.Duration

	// AccessJitter adds uniform per-packet delay jitter in [0, AccessJitter)
	// on every access link (order-preserving), modeling the non-queueing
	// delay noise real paths have.
	AccessJitter sim.Duration

	// BufferPkts is the bottleneck buffer in packets. Zero applies the
	// paper's rule: the bandwidth-delay product at the mean of RTTs, with a
	// floor of 2*Hosts.
	BufferPkts int

	PktSize int // wire packet size for BDP accounting; default 1040

	// Queue builds the bottleneck queue (both directions). Required.
	Queue QueueFactory
}

// Dumbbell is a built single-bottleneck topology.
type Dumbbell struct {
	Net         *netem.Network
	Left, Right []*netem.Node
	R1, R2      *netem.Node
	Forward     *netem.Link // R1 -> R2, the instrumented bottleneck
	Reverse     *netem.Link // R2 -> R1
	BufferPkts  int
	CapacityPPS float64
}

// BDPPackets returns the bandwidth-delay product in packets for the given
// rate, two-way propagation delay, and packet size.
func BDPPackets(bandwidth float64, rtt sim.Duration, pktSize int) int {
	return int(bandwidth * rtt.Seconds() / (8 * float64(pktSize)))
}

// NewDumbbell builds the topology.
func NewDumbbell(net *netem.Network, cfg DumbbellConfig) *Dumbbell {
	if cfg.Queue == nil {
		panic("topo: DumbbellConfig.Queue is required")
	}
	if cfg.Hosts <= 0 {
		panic("topo: dumbbell needs at least one host pair")
	}
	if len(cfg.RTTs) == 0 {
		cfg.RTTs = []sim.Duration{60 * sim.Millisecond}
	}
	if cfg.PktSize == 0 {
		cfg.PktSize = 1040
	}
	if cfg.BufferPkts == 0 {
		var sum sim.Duration
		for _, r := range cfg.RTTs {
			sum += r
		}
		cfg.BufferPkts = BDPPackets(cfg.Bandwidth, sum/sim.Duration(len(cfg.RTTs)), cfg.PktSize)
		if min := 2 * cfg.Hosts; cfg.BufferPkts < min {
			cfg.BufferPkts = min
		}
	}

	pps := cfg.Bandwidth / (8 * float64(cfg.PktSize))
	d := &Dumbbell{Net: net, BufferPkts: cfg.BufferPkts, CapacityPPS: pps}
	d.R1, d.R2 = net.AddNode(), net.AddNode()
	d.Forward = net.AddLink(d.R1, d.R2, cfg.Bandwidth, cfg.Delay, cfg.Queue(cfg.BufferPkts, pps))
	d.Reverse = net.AddLink(d.R2, d.R1, cfg.Bandwidth, cfg.Delay, cfg.Queue(cfg.BufferPkts, pps))

	accessQ := func() netem.Discipline { return queue.NewDropTail(accessBuffer) }
	for i := 0; i < cfg.Hosts; i++ {
		rtt := cfg.RTTs[i%len(cfg.RTTs)]
		access := accessDelay(rtt, cfg.Delay)
		l, r := net.AddNode(), net.AddNode()
		la, lb := net.AddDuplexLink(l, d.R1, accessBandwidth, access, accessQ(), accessQ())
		ra, rb := net.AddDuplexLink(r, d.R2, accessBandwidth, access, accessQ(), accessQ())
		for _, lk := range []*netem.Link{la, lb, ra, rb} {
			lk.JitterMax = cfg.AccessJitter
		}
		d.Left = append(d.Left, l)
		d.Right = append(d.Right, r)
	}
	net.ComputeRoutes()
	return d
}

// PartitionHint maps every node to one of shards domains for parallel
// simulation: R1 with the left hosts, R2 with the right hosts. A dumbbell
// has a single useful cut — the bottleneck itself — so any request above 2
// clamps to 2.
func (d *Dumbbell) PartitionHint(shards int) []int {
	assign := make([]int, len(d.Net.Nodes))
	if shards < 2 {
		return assign
	}
	assign[d.R2.ID] = 1
	for _, h := range d.Right {
		assign[h.ID] = 1
	}
	return assign
}

// accessDelay derives the per-side access-link delay that realizes the given
// end-to-end RTT across a bottleneck with one-way delay bd: each direction
// crosses two access links and the bottleneck.
func accessDelay(rtt sim.Duration, bd sim.Duration) sim.Duration {
	oneWay := rtt / 2
	a := (oneWay - bd) / 2
	if a < 0 {
		a = 0
	}
	return a
}
