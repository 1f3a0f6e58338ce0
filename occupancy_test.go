package pert

import (
	"testing"

	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
	"pert/internal/trafficgen"
)

// TestPendingSetHoldsSourcesNotEvents is the occupancy regression for the
// engine's pending set on the workload that motivated it: 60 long PERT flows
// in steady state on the 150 Mbps dumbbell. Every retransmission timer is
// pushed out by every ACK and every link has packets propagating, so an
// engine that kept one heap entry per Reset and per packet in flight held
// thousands of entries here (5 601 on average when measured, for ~1 500 live
// events). With one key per source the heap can never exceed the number of
// sources — each flow's retransmission and delayed-ACK timers, each link's
// transmit timer and arrival lane — however long the run.
func TestPendingSetHoldsSourcesNotEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("15 simulated seconds of a 150 Mbps dumbbell")
	}
	const flows = 60
	eng := sim.NewEngine(5)
	net := netem.NewNetwork(eng)
	d := topo.NewDumbbell(net, topo.DumbbellConfig{
		Bandwidth: 150e6,
		Delay:     10 * sim.Millisecond,
		Hosts:     flows,
		RTTs:      []sim.Duration{40 * sim.Millisecond, 60 * sim.Millisecond, 80 * sim.Millisecond, 120 * sim.Millisecond},
		Queue: func(limit int, _ float64) netem.Discipline {
			return queue.NewDropTail(limit)
		},
	})
	trafficgen.FTPFleet(net, trafficgen.NewIDs(), d.Left, d.Right, flows, trafficgen.FTPConfig{
		CC: func() tcp.CongestionControl { return tcp.NewPERTRed() },
	})
	// A duplex access link per host on each side plus the duplex bottleneck;
	// two sources per link, two per flow.
	const links = 2*2*flows + 2
	const sources = 2*links + 2*flows

	eng.Run(5 * sim.Second) // past slow start
	maxHeap, sumHeap, sumPending, samples := 0, 0, 0, 0
	for eng.Now() < 15*sim.Second {
		eng.Run(eng.Now() + 100*sim.Millisecond)
		qs := eng.QueueStats()
		if qs.HeapLen > maxHeap {
			maxHeap = qs.HeapLen
		}
		sumHeap += qs.HeapLen
		sumPending += eng.Pending()
		samples++
	}
	qs := eng.QueueStats()
	t.Logf("heap mean %d max %d, pending mean %d, slab %d; %d events, %d carrier requeues, %d stale discards",
		sumHeap/samples, maxHeap, sumPending/samples, qs.SlabLen, eng.Processed, qs.CarrierRequeues, qs.StaleDiscards)
	if maxHeap > sources {
		t.Errorf("heap reached %d keys with only %d event sources (stale or per-event keys are building up)", maxHeap, sources)
	}
	if sumPending <= sumHeap {
		t.Errorf("pending events (mean %d) do not exceed heap keys (mean %d): lanes are not carrying the packets in flight",
			sumPending/samples, sumHeap/samples)
	}
	if qs.LaneFallbacks != 0 {
		t.Errorf("%d lane fallbacks on unimpaired FIFO links", qs.LaneFallbacks)
	}
	if util := float64(d.Forward.Stats.TxBytes) * 8 / (150e6 * eng.Now().Seconds()); util < 0.8 {
		t.Errorf("bottleneck only %.0f%% utilised: not the steady state this test is about", util*100)
	}
}
