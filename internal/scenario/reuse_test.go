package scenario

import (
	"testing"

	"pert/internal/netem"
	"pert/internal/queue"
	"pert/internal/sim"
	"pert/internal/tcp"
)

// windowTap wraps a controller and logs the sender's window after every ACK.
type windowTap struct {
	tcp.CongestionControl
	log *[][2]float64
}

func (w windowTap) OnAck(c *tcp.Conn, newly int, rtt sim.Duration) {
	w.CongestionControl.OnAck(c, newly, rtt)
	*w.log = append(*w.log, [2]float64{c.Cwnd(), c.Ssthresh()})
}

// TestSchemeControllerReuseMatchesFresh: a web session runs every object on
// one controller from its scheme's factory, re-Inited per connection, so for
// every registered scheme, a newly registered one included, a reused
// controller must drive a connection exactly as a fresh one does. Connection
// A runs over the scheme's own bottleneck queue, with random loss, until it
// has been through an RTO and SACK recovery; connection B then runs on A's
// controller or on a fresh one from the same factory, and every send, the
// window after every ACK, and every counter of B must agree.
func TestSchemeControllerReuseMatchesFresh(t *testing.T) {
	const bw, pps = 2e6, 2e6 / 8 / 1040
	env := Env{CapacityPPS: pps, NFlows: 1, MaxRTT: 30 * sim.Millisecond}
	type outcome struct {
		sends [][2]int64
		acks  [][2]float64
		stats tcp.ConnStats
		done  sim.Time
	}
	for _, name := range SortedNames() {
		def := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			run := func(reuse bool) outcome {
				var o outcome
				eng := sim.NewEngine(7)
				net := netem.NewNetwork(eng)
				a, b := net.AddNode(), net.AddNode()
				fwd, _ := net.AddDuplexLink(a, b, bw, 15*sim.Millisecond, def.Queue(net, env)(60, pps), queue.NewDropTail(1000))
				imp := netem.NewImpairment(7)
				imp.Loss = 0.02
				fwd.SetImpairment(imp)
				tap := func(p *netem.Packet, now sim.Time) {
					if p.Flow == 2 && !p.IsAck {
						o.sends = append(o.sends, [2]int64{int64(now), p.Seq})
					}
				}
				fwd.OnEnqueue, fwd.OnDrop = tap, tap
				net.ComputeRoutes()

				cc := def.CC(net, env)
				ca := cc()
				cfg := tcp.Config{ECN: def.ECN}
				fa := tcp.NewFlow(net, a, b, 1, ca, cfg)
				fa.Start(0)
				for st := &fa.Conn.Stats; st.RTOs == 0 || st.FastRecoveries == 0; {
					if eng.Now() > 300*sim.Second {
						t.Fatalf("connection A never covered an RTO and SACK recovery: %+v", *st)
					}
					eng.Run(eng.Now() + sim.Millisecond)
				}
				eng.Run(eng.Now() + 700*sim.Millisecond)
				fa.Close()

				cfg.TotalSegs = 1500
				cfg.OnComplete = func(now sim.Time) { o.done = now }
				cb := ca
				if !reuse {
					cb = cc()
				}
				fb := tcp.NewFlow(net, a, b, 2, windowTap{cb, &o.acks}, cfg)
				fb.Start(eng.Now())
				eng.Run(eng.Now() + 300*sim.Second)
				o.stats = fb.Conn.Stats
				return o
			}
			fresh, reused := run(false), run(true)
			if fresh.done == 0 || len(fresh.acks) == 0 {
				t.Fatalf("premise: connection B completed at %v with %+v", fresh.done, fresh.stats)
			}
			if len(fresh.sends) != len(reused.sends) || len(fresh.acks) != len(reused.acks) {
				t.Fatalf("B sent %d segments and took %d ACKs fresh, %d and %d reused",
					len(fresh.sends), len(fresh.acks), len(reused.sends), len(reused.acks))
			}
			for i := range fresh.sends {
				if fresh.sends[i] != reused.sends[i] {
					t.Fatalf("send %d differs: fresh %v, reused %v", i, fresh.sends[i], reused.sends[i])
				}
			}
			for i := range fresh.acks {
				if fresh.acks[i] != reused.acks[i] {
					t.Fatalf("window after ACK %d differs: fresh %v, reused %v", i, fresh.acks[i], reused.acks[i])
				}
			}
			if fresh.stats != reused.stats || fresh.done != reused.done {
				t.Fatalf("end state differs:\nfresh  %+v at %v\nreused %+v at %v", fresh.stats, fresh.done, reused.stats, reused.done)
			}
		})
	}
}
