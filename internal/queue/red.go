package queue

import (
	"math"
	"math/rand"

	"pert/internal/core"
	"pert/internal/netem"
	"pert/internal/sim"
)

// REDConfig parameterizes a RED queue. Zero-valued fields are filled with the
// defaults recommended in the RED and Adaptive RED papers by applyDefaults.
type REDConfig struct {
	Limit   int     // hard buffer capacity in packets (required)
	MinTh   float64 // lower average-queue threshold, packets
	MaxTh   float64 // upper average-queue threshold, packets
	MaxP    float64 // marking probability at MaxTh
	Wq      float64 // EWMA weight for the average queue estimate
	Gentle  bool    // ramp probability from MaxP to 1 between MaxTh and 2*MaxTh
	ECN     bool    // mark ECN-capable packets instead of dropping
	MeanPkt int     // mean packet size in bytes, for idle-time compensation

	// CapacityPPS is the link rate in packets/second; needed for idle-time
	// compensation and the adaptive variant's automatic Wq.
	CapacityPPS float64
}

func (c *REDConfig) applyDefaults() {
	if c.Limit <= 0 {
		panic("queue: RED requires a positive Limit")
	}
	if c.MinTh == 0 {
		c.MinTh = math.Max(5, float64(c.Limit)/12)
	}
	if c.MaxTh == 0 {
		c.MaxTh = 3 * c.MinTh
	}
	if c.MaxP == 0 {
		c.MaxP = 0.1
	}
	if c.Wq == 0 {
		if c.CapacityPPS > 0 {
			// Floyd 2001: track the queue on the time scale of the link.
			c.Wq = 1 - math.Exp(-1/c.CapacityPPS)
			if c.Wq < 1e-6 {
				c.Wq = 1e-6
			}
		} else {
			c.Wq = 0.002
		}
	}
	if c.MeanPkt == 0 {
		c.MeanPkt = 1000
	}
	if c.MaxTh > float64(c.Limit) {
		c.MaxTh = float64(c.Limit)
	}
	if c.MinTh >= c.MaxTh {
		c.MinTh = c.MaxTh / 3
	}
}

// RED implements Random Early Detection with optional gentle mode and ECN
// marking. The average queue length is an EWMA updated on every arrival, with
// the standard idle-period compensation that decays the average as if empty-
// queue departures had been observed.
type RED struct {
	aqm
	cfg REDConfig

	avg       float64
	count     int // packets since last mark/drop while in marking region
	idleSince sim.Time
	idle      bool
}

// NewRED returns a RED queue. rng drives marking decisions; pass the
// simulation engine's generator for reproducible runs.
func NewRED(cfg REDConfig, rng *rand.Rand) *RED {
	cfg.applyDefaults()
	return &RED{aqm: aqm{limit: cfg.Limit, ecn: cfg.ECN, rng: rng}, cfg: cfg, idle: true}
}

// Config returns the effective configuration after defaulting.
func (r *RED) Config() REDConfig { return r.cfg }

// AvgQueue returns the current average queue estimate in packets.
func (r *RED) AvgQueue() float64 { return r.avg }

// MaxP returns the marking probability currently in effect at MaxTh: the
// configured constant for plain RED, the live adapted value under
// AdaptiveRED. Exposed for instrumentation.
func (r *RED) MaxP() float64 { return r.cfg.MaxP }

// updateAvg advances the average queue estimate for an arrival at time now.
func (r *RED) updateAvg(now sim.Time) {
	if r.idle {
		// Simulate m empty-queue samples for the idle period.
		txTime := 1.0
		if r.cfg.CapacityPPS > 0 {
			txTime = 1 / r.cfg.CapacityPPS
		}
		m := (now - r.idleSince).Seconds() / txTime
		if m > 0 {
			r.avg *= math.Pow(1-r.cfg.Wq, m)
		}
		r.idle = false
	}
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*float64(r.q.len())
}

// Enqueue implements netem.Discipline.
func (r *RED) Enqueue(p *netem.Packet, now sim.Time) bool {
	r.updateAvg(now)
	c := &r.cfg

	if r.full() {
		return false
	}

	forcedRegion := r.avg >= 2*c.MaxTh || (!c.Gentle && r.avg >= c.MaxTh)
	if forcedRegion {
		r.count = 0
		r.ForcedDrops++
		return false
	}

	if pb := core.Ramp(r.avg, c.MinTh, c.MaxTh, c.MaxP, c.Gentle); pb > 0 {
		r.count++
		// Uniformize inter-mark spacing (RED's count correction).
		pa := pb / math.Max(1e-12, 1-float64(r.count)*pb)
		if float64(r.count)*pb >= 1 || r.rng.Float64() < pa {
			r.count = 0
			if !r.early(p) {
				return false
			}
		}
	} else {
		r.count = 0
	}

	r.q.push(p)
	return true
}

// Dequeue implements netem.Discipline, noting when the queue goes idle.
func (r *RED) Dequeue(now sim.Time) *netem.Packet {
	p := r.q.pop()
	if p != nil && r.q.len() == 0 {
		r.idle = true
		r.idleSince = now
	}
	return p
}
