package tcp

import (
	"math/rand"
	"testing"

	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/sim"
)

// sendRec is one data segment as its sender offered it to the first link.
type sendRec struct {
	at      sim.Time
	seq     int64
	retrans bool
}

// ackRec is the sender's window state after one ACK.
type ackRec struct {
	cwnd, ssthresh float64
	rto            sim.Duration
}

// ackTap wraps a controller and logs the window state after every ACK.
type ackTap struct {
	CongestionControl
	log *[]ackRec
}

func (c ackTap) OnAck(conn *Conn, newly int, rtt sim.Duration, ack *netem.Packet) {
	c.CongestionControl.OnAck(conn, newly, rtt, ack)
	*c.log = append(*c.log, ackRec{conn.Cwnd(), conn.Ssthresh(), conn.RTT().RTO()})
}

// reuseBed is a 2 Mbps two-node path whose forward link loses, reorders and
// RED-ECN-marks under fixed seeds. Every data segment of flow watch offered
// to that link is appended to sends.
func reuseBed(watch int, sends *[]sendRec) (*sim.Engine, *netem.Network, *netem.Node, *netem.Node) {
	eng := sim.NewEngine(7)
	net := netem.NewNetwork(eng)
	a, b := net.AddNode(), net.AddNode()
	red := queue.NewRED(queue.REDConfig{
		Limit: 60, MinTh: 3, MaxTh: 9, MaxP: 0.2, Wq: 0.05, ECN: true, Gentle: true, CapacityPPS: 2e6 / 8 / 1040,
	}, rand.New(rand.NewSource(7)))
	fwd, _ := net.AddDuplexLink(a, b, 2e6, 15*sim.Millisecond, red, queue.NewDropTail(1000))
	imp := netem.NewImpairment(7)
	imp.Loss, imp.Reorder, imp.ReorderMax = 0.02, 0.02, 10*sim.Millisecond
	fwd.SetImpairment(imp)
	tap := func(p *netem.Packet, now sim.Time) {
		if p.Flow == watch && !p.IsAck {
			*sends = append(*sends, sendRec{now, p.Seq, p.Retrans})
		}
	}
	fwd.OnEnqueue, fwd.OnDrop = tap, tap
	net.ComputeRoutes()
	return eng, net, a, b
}

// TestReusedFlowMatchesFresh: a flow recycled with Reuse is indistinguishable
// from one built by NewFlow. Flow A runs until it has been through an RTO,
// SACK recovery and an ECN response, and is closed with a CE echo
// outstanding at its sink and segments still in flight. Transfer B then runs
// either on A's recycled endpoints or on a fresh NewFlow, over networks that
// are identical up to that point; every send, the window state after every
// ACK, and every counter of B must agree. B starts at once, while A's
// stopped retransmission timer still has a carrier in the engine, and again
// a second later, once the bottleneck has drained and no longer masks state
// a sink might carry over.
func TestReusedFlowMatchesFresh(t *testing.T) {
	type outcome struct {
		sends []sendRec
		acks  []ackRec
		end   struct {
			stats ConnStats
			rtt   RTTEstimator
			sink  [4]uint64
			last  sim.Time
			done  sim.Time
		}
	}
	run := func(reuse bool, gap sim.Duration) outcome {
		var o outcome
		eng, net, a, b := reuseBed(2, &o.sends)
		cfg := Config{ECN: true}
		fa := NewFlow(net, a, b, 1, Reno{}, cfg)
		fa.Start(0)
		for st := &fa.Conn.Stats; st.RTOs == 0 || st.FastRecoveries == 0 || st.ECNResponses == 0 || !fa.Sink.ecnEcho; {
			if eng.Now() > 300*sim.Second {
				t.Fatalf("flow A never covered an RTO, SACK recovery and an ECN response, then paused with a CE echo pending: %+v", *st)
			}
			eng.Run(eng.Now() + sim.Millisecond)
		}
		fa.Close()

		cfg.TotalSegs = 1500
		cfg.OnComplete = func(now sim.Time) { o.end.done = now }
		cc := ackTap{Reno{}, &o.acks}
		fb := fa
		if reuse {
			fb.Reuse(2, cc, cfg)
		} else {
			fb = NewFlow(net, a, b, 2, cc, cfg)
		}
		fb.Start(eng.Now() + gap)
		eng.Run(eng.Now() + 300*sim.Second)
		s := fb.Sink
		o.end.stats, o.end.rtt = fb.Conn.Stats, *fb.Conn.RTT()
		o.end.sink = [4]uint64{s.SegsReceived, s.UniqueSegs, s.BytesGoodput, s.AcksSent}
		o.end.last = s.LastArrival
		return o
	}
	for _, gap := range []sim.Duration{0, sim.Second} {
		fresh, reused := run(false, gap), run(true, gap)
		if st := fresh.end.stats; fresh.end.done == 0 || st.FastRecoveries == 0 || st.ECNResponses == 0 {
			t.Fatalf("gap %v: premise: transfer B completed at %v with %+v", gap, fresh.end.done, st)
		}
		if i := firstDiff(fresh.sends, reused.sends); i >= 0 {
			t.Fatalf("gap %v: send %d differs: fresh %v, reused %v", gap, i, at(fresh.sends, i), at(reused.sends, i))
		}
		if i := firstDiff(fresh.acks, reused.acks); i >= 0 {
			t.Fatalf("gap %v: state after ACK %d differs: fresh %v, reused %v", gap, i, at(fresh.acks, i), at(reused.acks, i))
		}
		if fresh.end != reused.end {
			t.Fatalf("gap %v: end state differs:\nfresh  %+v\nreused %+v", gap, fresh.end, reused.end)
		}
	}

	t.Run("live flow panics", func(t *testing.T) {
		eng, net, a, b := reuseBed(0, new([]sendRec))
		f := NewFlow(net, a, b, 1, Reno{}, Config{TotalSegs: 1000})
		f.Start(0)
		eng.Run(sim.Second)
		if f.Conn.Completed() {
			t.Fatal("premise: the flow finished within a second")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Reuse of a live flow did not panic")
			}
		}()
		f.Reuse(2, Reno{}, Config{})
	})
}

// TestNewFlowAllocBudget: building and closing a flow costs five heap
// objects — the Flow, the Conn, its retransmission timer and the timer's
// bound onRTO, and the Sink, which owns no timer.
func TestNewFlowAllocBudget(t *testing.T) {
	_, net, a, b := acceptorBed(t)
	cycle := func() { NewFlow(net, a, b, 1, Reno{}, Config{}).Close() }
	cycle() // the demux entry for flow 1 exists from here on
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 5 {
		t.Fatalf("NewFlow+Close allocates %.1f times, budget is 5", allocs)
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// at renders s[i], or "none" past the end.
func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "none"
}
