package netem

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pert/internal/sim"
)

// impairedLinkTrace drives one link through every delivery path at once —
// jitter, wire loss, reordering (which bypasses the FIFO floor), duplication
// (which respects it) and a LinkSchedule that first cuts the propagation
// delay, so the floor has to hold packets back, then raises it again — and
// returns the receiver's view: one "seq arrival_ns" line per delivery.
func impairedLinkTrace() string {
	eng := sim.NewEngine(7)
	net, a, b, ab := line(eng, 10e6, 20*sim.Millisecond, 1000)
	ab.JitterMax = 3 * sim.Millisecond
	imp := NewImpairment(11)
	imp.Loss, imp.Dup, imp.Reorder, imp.ReorderMax = 0.02, 0.05, 0.1, 8*sim.Millisecond
	ab.SetImpairment(imp)
	LinkSchedule{
		{At: 150 * sim.Millisecond, Delay: 5 * sim.Millisecond},
		{At: 300 * sim.Millisecond, Delay: 12 * sim.Millisecond},
	}.Apply(ab)

	var out strings.Builder
	b.AttachFlow(1, handlerFunc(func(p *Packet, now sim.Time) {
		fmt.Fprintf(&out, "%d %d\n", p.Seq, int64(now))
	}))
	for i := 0; i < 600; i++ {
		i := i
		eng.Do(sim.Time(i)*700*sim.Microsecond, func() {
			net.SendFrom(a, &Packet{ID: net.NewPacketID(), Flow: 1, Src: a.ID, Dst: b.ID,
				Size: 500 + i%7*100, Seq: int64(i)})
		})
	}
	eng.Run(sim.Second)
	return out.String()
}

type handlerFunc func(p *Packet, now sim.Time)

func (f handlerFunc) Receive(p *Packet, now sim.Time) { f(p, now) }

// TestImpairedLinkMatchesGoldenTrace pins the order and the exact times of
// every delivery on an impaired, jittered, rescheduled link to a trace
// recorded at commit 46a390c, before link arrivals moved from one heap entry
// per packet onto a sim.Lane: routing deliveries through the lane (and the
// reordered ones around it) must be invisible to the receiver.
func TestImpairedLinkMatchesGoldenTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/impaired_link_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := impairedLinkTrace()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("delivery %d: got %q, golden has %q", i, g[i], w[i])
		}
	}
	t.Fatalf("trace is %d lines, golden has %d", len(g), len(w))
}
