package queue

import (
	"math"
	"math/rand"

	"pert/internal/netem"
	"pert/internal/sim"
)

// AdaptiveRED wraps RED with the parameter self-tuning of Floyd, Gummadi and
// Shenker (2001): MaxP is adapted by AIMD every Interval to keep the average
// queue inside a target band centred between MinTh and MaxTh, and Wq and the
// thresholds are derived from the link rate and a target queueing delay. This
// is the "adaptive RED version for the routers that tunes the parameters
// according to network conditions" used throughout the paper's Section 4.
type AdaptiveRED struct {
	*RED

	// Interval between MaxP adaptations; Floyd 2001 uses 0.5 s.
	Interval sim.Duration
	// Alpha is the additive MaxP increment, Beta the multiplicative
	// decrement (paper defaults: min(0.01, MaxP/4) and 0.9).
	Beta float64

	targetLo, targetHi float64
	lastAdapt          sim.Time
	forcedAtAdapt      uint64
}

// AdaptiveREDConfig describes an Adaptive RED queue in terms of link
// properties rather than raw thresholds.
type AdaptiveREDConfig struct {
	Limit       int          // buffer capacity in packets (required)
	CapacityPPS float64      // link rate in packets/second (required)
	TargetDelay sim.Duration // target queueing delay; default 5 ms
	ECN         bool
	MeanPkt     int
}

// NewAdaptiveRED builds an Adaptive RED queue with thresholds auto-set from
// the link rate and target delay per Floyd 2001: MinTh = max(5, C*d/2),
// MaxTh = 3*MinTh, Wq = 1-exp(-1/C).
func NewAdaptiveRED(cfg AdaptiveREDConfig, rng *rand.Rand) *AdaptiveRED {
	if cfg.CapacityPPS <= 0 {
		panic("queue: AdaptiveRED requires CapacityPPS")
	}
	if cfg.TargetDelay == 0 {
		// Default target: a quarter of the buffer's drain time, floored at
		// 5 ms. A fixed small target starves BDP-sized buffers of the
		// queue TCP sawtooths need to keep the link busy.
		drain := sim.Seconds(float64(cfg.Limit) / cfg.CapacityPPS)
		cfg.TargetDelay = drain / 4
		if cfg.TargetDelay < 5*sim.Millisecond {
			cfg.TargetDelay = 5 * sim.Millisecond
		}
	}
	minTh := math.Max(5, cfg.CapacityPPS*cfg.TargetDelay.Seconds()/2)
	// Keep the marking region inside the physical buffer.
	if 3*minTh > float64(cfg.Limit) {
		minTh = math.Max(1, float64(cfg.Limit)/3)
	}
	red := NewRED(REDConfig{
		Limit:       cfg.Limit,
		MinTh:       minTh,
		MaxTh:       3 * minTh,
		MaxP:        0.1,
		Gentle:      true,
		ECN:         cfg.ECN,
		MeanPkt:     cfg.MeanPkt,
		CapacityPPS: cfg.CapacityPPS,
	}, rng)
	a := &AdaptiveRED{
		RED:      red,
		Interval: 500 * sim.Millisecond,
		Beta:     0.9,
	}
	span := red.cfg.MaxTh - red.cfg.MinTh
	a.targetLo = red.cfg.MinTh + 0.4*span
	a.targetHi = red.cfg.MinTh + 0.6*span
	return a
}

// Enqueue implements netem.Discipline, adapting MaxP on the configured
// interval before delegating to RED.
func (a *AdaptiveRED) Enqueue(p *netem.Packet, now sim.Time) bool {
	if now-a.lastAdapt >= a.Interval {
		a.adapt()
		a.lastAdapt = now
	}
	return a.RED.Enqueue(p, now)
}

// adapt applies one AIMD step to MaxP toward the target average-queue band.
// Buffer overflows during the interval mean marking was too weak regardless
// of where the average sits (overflow losses themselves pull the average
// back into the band, a degenerate equilibrium Floyd's rule alone can get
// stuck in), so they force an increase.
func (a *AdaptiveRED) adapt() {
	r := a.RED
	overflowed := r.ForcedDrops > a.forcedAtAdapt
	a.forcedAtAdapt = r.ForcedDrops
	switch {
	case overflowed:
		r.cfg.MaxP = math.Min(0.5, r.cfg.MaxP*1.5)
	case r.avg > a.targetHi && r.cfg.MaxP < 0.5:
		r.cfg.MaxP += math.Min(0.01, r.cfg.MaxP/4)
	case r.avg < a.targetLo && r.cfg.MaxP > 0.01:
		r.cfg.MaxP *= a.Beta
	}
}
