package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pert/internal/netem"
	"pert/internal/sim"
)

func blk(a, b int64) netem.SackBlock { return netem.SackBlock{Start: a, End: b} }

func TestScoreboardAddMerge(t *testing.T) {
	var s Scoreboard
	s.Add(blk(10, 12))
	s.Add(blk(14, 16))
	s.Add(blk(12, 14)) // bridges the gap
	bs := s.Blocks()
	if len(bs) != 1 || bs[0] != blk(10, 16) {
		t.Fatalf("blocks = %v", bs)
	}
	if s.SackedCount() != 6 {
		t.Fatalf("count = %d", s.SackedCount())
	}
}

func TestScoreboardAddOverlap(t *testing.T) {
	var s Scoreboard
	s.Add(blk(5, 10))
	s.Add(blk(8, 12))
	s.Add(blk(3, 6))
	bs := s.Blocks()
	if len(bs) != 1 || bs[0] != blk(3, 12) {
		t.Fatalf("blocks = %v", bs)
	}
}

func TestScoreboardEmptyBlockIgnored(t *testing.T) {
	var s Scoreboard
	s.Add(blk(5, 5))
	s.Add(blk(7, 6))
	if len(s.Blocks()) != 0 {
		t.Fatalf("blocks = %v", s.Blocks())
	}
}

func TestScoreboardAckedUpTo(t *testing.T) {
	var s Scoreboard
	s.Add(blk(5, 8))
	s.Add(blk(10, 12))
	s.AckedUpTo(6)
	if bs := s.Blocks(); len(bs) != 2 || bs[0] != blk(6, 8) {
		t.Fatalf("blocks = %v", bs)
	}
	s.AckedUpTo(9)
	if bs := s.Blocks(); len(bs) != 1 || bs[0] != blk(10, 12) {
		t.Fatalf("blocks = %v", bs)
	}
	s.AckedUpTo(20)
	if len(s.Blocks()) != 0 {
		t.Fatalf("blocks = %v", s.Blocks())
	}
}

func TestScoreboardHoles(t *testing.T) {
	var s Scoreboard
	s.Add(blk(3, 5))
	s.Add(blk(7, 9))
	if h := s.NextHole(0, 9); h != 0 {
		t.Fatalf("hole = %d", h)
	}
	if h := s.NextHole(3, 9); h != 5 {
		t.Fatalf("hole from 3 = %d", h)
	}
	if h := s.NextHole(7, 9); h != -1 {
		t.Fatalf("hole from 7 = %d", h)
	}
	if h := s.NextHole(0, 3); h != 0 {
		t.Fatalf("hole limited = %d", h)
	}
	if h := s.NextHole(3, 5); h != -1 {
		t.Fatalf("hole inside block = %d", h)
	}
}

func TestScoreboardQueries(t *testing.T) {
	var s Scoreboard
	s.Add(blk(3, 5))
	s.Add(blk(7, 9))
	if !s.IsSacked(3) || !s.IsSacked(4) || s.IsSacked(5) || s.IsSacked(6) || !s.IsSacked(8) {
		t.Fatal("IsSacked wrong")
	}
	if s.HighestSacked() != 9 {
		t.Fatalf("highest = %d", s.HighestSacked())
	}
	if s.SackedAbove(4) != 3 {
		t.Fatalf("above 4 = %d", s.SackedAbove(4))
	}
	if s.SackedAbove(9) != 0 {
		t.Fatalf("above 9 = %d", s.SackedAbove(9))
	}
	s.Reset()
	if s.SackedCount() != 0 || s.HighestSacked() != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: the scoreboard agrees with a naive set-of-integers model under
// random Add/AckedUpTo sequences, and its blocks stay sorted and disjoint.
func TestScoreboardModelProperty(t *testing.T) {
	type op struct {
		Start uint8
		Len   uint8
		Ack   bool
	}
	f := func(ops []op) bool {
		var s Scoreboard
		model := map[int64]bool{}
		floor := int64(0)
		for _, o := range ops {
			if o.Ack {
				cum := int64(o.Start)
				if cum > floor {
					floor = cum
				}
				s.AckedUpTo(floor)
				for k := range model {
					if k < floor {
						delete(model, k)
					}
				}
			} else {
				a := int64(o.Start)
				b := a + int64(o.Len%8)
				s.Add(netem.SackBlock{Start: a, End: b})
				for k := a; k < b; k++ {
					if k >= floor {
						model[k] = true
					}
				}
			}
			// Compare counts and membership.
			if s.SackedCount() != int64(len(model)) {
				return false
			}
			for k := range model {
				if !s.IsSacked(k) {
					return false
				}
			}
			// Blocks sorted, disjoint, non-empty.
			bs := s.Blocks()
			for i, b := range bs {
				if b.End <= b.Start {
					return false
				}
				if i > 0 && bs[i-1].End >= b.Start {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestScoreboardAddAllocBudget: Add inserts and merges in place and
// AckedUpTo shifts acknowledged blocks out instead of slicing them off, so a
// scoreboard going through loss episode after loss episode allocates nothing
// once its slice has grown to an episode's block count.
func TestScoreboardAddAllocBudget(t *testing.T) {
	var s Scoreboard
	base := int64(0)
	episode := func() {
		for _, k := range []int64{14, 2, 8, 11, 5, 17, 23, 20} {
			s.Add(blk(base+k, base+k+1)) // out-of-order inserts
		}
		s.Add(blk(base+3, base+5))  // bridges two blocks
		s.Add(blk(base+9, base+11)) // extends one
		s.AckedUpTo(base + 10)      // drops a prefix mid-episode
		s.Add(blk(base+26, base+28))
		base += 30
		s.AckedUpTo(base)
	}
	episode()
	if allocs := testing.AllocsPerRun(100, episode); allocs != 0 {
		t.Fatalf("a warm scoreboard allocates %.1f times per loss episode, budget is 0", allocs)
	}
	if n := len(s.Blocks()); n != 0 || s.SackedCount() != 0 {
		t.Fatalf("%d blocks, %d segments left after the last episode was acked", n, s.SackedCount())
	}
}

func TestRTTEstimator(t *testing.T) {
	e := NewRTTEstimator()
	if e.HasSample() {
		t.Fatal("fresh estimator claims samples")
	}
	if e.RTO() != sim.Second {
		t.Fatalf("initial RTO = %v", e.RTO())
	}
	e.Sample(100 * sim.Millisecond)
	if e.SRTT != 100*sim.Millisecond || e.RTTVar != 50*sim.Millisecond {
		t.Fatalf("first sample: srtt=%v var=%v", e.SRTT, e.RTTVar)
	}
	if e.Min != 100*sim.Millisecond {
		t.Fatalf("min = %v", e.Min)
	}
	e.Sample(200 * sim.Millisecond)
	// srtt = 7/8*100 + 1/8*200 = 112.5ms
	if e.SRTT != sim.Milliseconds(112.5) {
		t.Fatalf("srtt = %v", e.SRTT)
	}
	if e.Min != 100*sim.Millisecond {
		t.Fatalf("min moved: %v", e.Min)
	}
	e.Sample(50 * sim.Millisecond)
	if e.Min != 50*sim.Millisecond {
		t.Fatalf("min = %v", e.Min)
	}
}

func TestRTOBackoffAndClamp(t *testing.T) {
	e := NewRTTEstimator()
	e.Sample(100 * sim.Millisecond)
	base := e.RTO()
	e.Backoff()
	if e.RTO() != base*2 {
		t.Fatalf("backoff: %v -> %v", base, e.RTO())
	}
	for i := 0; i < 30; i++ {
		e.Backoff()
	}
	if e.RTO() != e.MaxRTO {
		t.Fatalf("RTO not clamped: %v", e.RTO())
	}
	e.Sample(100 * sim.Millisecond) // sample resets backoff
	// A fresh sample clears the exponential backoff; the exact RTO differs
	// from base because RTTVar kept shrinking.
	if e.RTO() >= base {
		t.Fatalf("backoff not reset: %v >= %v", e.RTO(), base)
	}
	// Tiny RTTs clamp up to MinRTO.
	e2 := NewRTTEstimator()
	e2.Sample(sim.Millisecond)
	if e2.RTO() != e2.MinRTO {
		t.Fatalf("min clamp: %v", e2.RTO())
	}
}
