package experiments

import (
	"pert/internal/core"
	"pert/internal/scenario"
	"pert/internal/tcp"
)

// PERTVariant describes a modified PERT for ablation studies of the design
// choices Section 3 fixes: the decrease factor (eq. 1's 35%), the signal
// smoothing weight (0.99), the once-per-RTT response limit, the gentle upper
// ramp of the response curve, and the threshold offsets (P+5 ms / P+10 ms).
type PERTVariant struct {
	Name           string
	Curve          core.ResponseCurve
	HistoryWeight  float64
	DecreaseFactor float64
	Unlimited      bool // disable the once-per-RTT response limit
}

// DefaultVariant returns the paper's standard configuration.
func DefaultVariant(name string) PERTVariant {
	return PERTVariant{
		Name:           name,
		Curve:          core.DefaultCurve(),
		HistoryWeight:  core.DefaultHistoryWeight,
		DecreaseFactor: core.DefaultDecreaseFactor,
	}
}

// CC returns a congestion-control factory realizing the variant.
func (v PERTVariant) CC() func() tcp.CongestionControl {
	return func() tcp.CongestionControl {
		return tcp.NewPERTLazy(func(c *tcp.Conn) core.Responder {
			r := core.NewREDResponderWith(c.Engine().Rand(), v.Curve, v.HistoryWeight, v.DecreaseFactor)
			r.Unlimited = v.Unlimited
			return r
		})
	}
}

// AblationSpec is the standard small scenario ablations run on: a moderately
// multiplexed DropTail dumbbell where PERT's early response is the only
// queue-management mechanism. Its groups name no scheme: the variant's
// controller (Attachments.CC) runs every flow.
func AblationSpec(seed int64) scenario.Spec {
	spec := Quick.dumbbell(seed, 30, 12)
	spec.Groups[webGroup].Count = 10
	spec.Duration, spec.MeasureFrom, spec.MeasureUntil = seconds(40), seconds(10), seconds(40)
	for i := range spec.Groups {
		spec.Groups[i].StartWindow = seconds(4)
	}
	return spec
}

// RunAblation executes the variant on the standard ablation scenario.
func RunAblation(v PERTVariant, seed int64) DumbbellResult {
	res := RunDumbbell(AblationSpec(seed), Attachments{CC: v.CC()})
	res.Scheme = Scheme("PERT[" + v.Name + "]")
	return res
}
