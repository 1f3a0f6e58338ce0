package queue

import (
	"math"
	"math/rand"
	"testing"

	"pert/internal/core"
)

// markProbRef is RED's packet-marking probability written directly over the
// queue's own fields, the reference the core.Ramp call in Enqueue must
// reproduce bit for bit.
func (r *RED) markProbRef() float64 {
	c := &r.cfg
	switch {
	case r.avg < c.MinTh:
		return 0
	case r.avg < c.MaxTh:
		return c.MaxP * (r.avg - c.MinTh) / (c.MaxTh - c.MinTh)
	case c.Gentle && r.avg < 2*c.MaxTh:
		return c.MaxP + (1-c.MaxP)*(r.avg-c.MaxTh)/c.MaxTh
	default:
		return 1
	}
}

// TestRampMatchesREDMarkProb compares the two over the region Enqueue can
// reach: below 2·MaxTh when gentle, below MaxTh when not. Above it the
// forced-drop check runs first, so the reference's 1 and a non-gentle Ramp's
// MaxP are never consulted.
func TestRampMatchesREDMarkProb(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	cfgs := []REDConfig{
		{MinTh: 4, MaxTh: 12, MaxP: 0.1},
		{MinTh: 5, MaxTh: 15, MaxP: 0.1},
		{MinTh: 62.5, MaxTh: 187.5, MaxP: 0.5},
	}
	for i := 0; i < 200; i++ {
		lo := rng.Float64() * 500
		cfgs = append(cfgs, REDConfig{MinTh: lo, MaxTh: lo + 1e-3 + rng.Float64()*1000, MaxP: rng.Float64()})
	}
	check := func(r *RED) {
		t.Helper()
		c := &r.cfg
		reach := c.MaxTh
		if c.Gentle {
			reach = 2 * c.MaxTh
		}
		if r.avg < 0 || r.avg >= reach {
			return
		}
		if got, want := core.Ramp(r.avg, c.MinTh, c.MaxTh, c.MaxP, c.Gentle), r.markProbRef(); got != want {
			t.Fatalf("%+v avg %v: Ramp = %v, markProb = %v", *c, r.avg, got, want)
		}
	}
	for _, cfg := range cfgs {
		for _, gentle := range []bool{true, false} {
			cfg.Gentle = gentle
			r := &RED{cfg: cfg}
			for _, b := range []float64{0, cfg.MinTh, cfg.MaxTh, 2 * cfg.MaxTh} {
				for _, avg := range []float64{math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1))} {
					r.avg = avg
					check(r)
				}
			}
			for i := 0; i < 200; i++ {
				r.avg = rng.Float64() * 2 * cfg.MaxTh
				check(r)
			}
		}
	}
}
