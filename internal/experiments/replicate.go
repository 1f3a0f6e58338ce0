package experiments

import (
	"context"
	"fmt"
	"math"

	"pert/internal/scenario"
	"pert/internal/stats"
)

// Replicated aggregates one metric across replicated runs.
type Replicated struct {
	Mean float64
	Std  float64
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval of the mean.
	CI95 float64
	N    int
}

func replicated(s *stats.Series) Replicated {
	n := s.N()
	r := Replicated{Mean: s.Mean(), Std: s.Std(), N: n}
	if n > 1 {
		r.CI95 = 1.96 * r.Std / math.Sqrt(float64(n))
	}
	return r
}

// ReplicatedResult carries the across-seed distribution of every headline
// metric of a dumbbell scenario.
type ReplicatedResult struct {
	AvgQueue    Replicated
	DropRate    Replicated
	Utilization Replicated
	Jain        Replicated
}

// ExtReplicated attaches error bars to the headline comparison: the standard
// dumbbell scenario run with several seeds per scheme, reporting mean ± 95%
// confidence interval for each panel. With deterministic simulations the
// only variance source is the seeded randomness (start times, web draws,
// marking decisions), so tight intervals here certify that single-seed
// tables elsewhere are representative.
func ExtReplicated(ctx context.Context, scale Scale) (*Table, error) {
	if err := checkRun(ctx, scale); err != nil {
		return nil, err
	}
	replicas := 5
	spec := AblationSpec(9700)
	spec.Shards = ShardsFrom(ctx, 0)
	if scale == Paper {
		replicas = 10
		spec.Topology.Bandwidth = 150e6
		spec.Groups[fwdGroup].Count = 50
		spec.Duration = seconds(400)
		spec.MeasureFrom = seconds(100)
		spec.MeasureUntil = seconds(300)
	}
	t := &Table{
		ID:    "ext-replicated",
		Title: fmt.Sprintf("Extension: seed sensitivity (%d replicas per scheme, mean ± 95%% CI)", replicas),
		Header: []string{"scheme", "queue_pkts", "queue_ci", "utilization",
			"util_ci", "jain", "jain_ci"},
	}
	for _, s := range []Scheme{PERT, SackDroptail, SackRED, Vegas} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := RunReplicated(s.on(spec), replicas)
		t.AddRow(string(s), f2(r.AvgQueue.Mean), "±"+f2(r.AvgQueue.CI95),
			f3(r.Utilization.Mean), "±"+f3(r.Utilization.CI95),
			f3(r.Jain.Mean), "±"+f3(r.Jain.CI95))
	}
	return t, nil
}

// RunReplicated executes the Section 4 cell n times with consecutive seeds
// and aggregates the metrics — the standard way to attach error bars to any
// experiment in this package (simulations are deterministic per seed, so the
// only variance is the seeded randomness itself).
func RunReplicated(spec scenario.Spec, n int) ReplicatedResult {
	if n < 1 {
		panic("experiments: replication count must be positive")
	}
	var q, d, u, j stats.Series
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = spec.Seed + int64(i)
		r := RunDumbbell(s, Attachments{})
		q.Add(r.AvgQueue)
		d.Add(r.DropRate)
		u.Add(r.Utilization)
		j.Add(r.Jain)
	}
	return ReplicatedResult{
		AvgQueue:    replicated(&q),
		DropRate:    replicated(&d),
		Utilization: replicated(&u),
		Jain:        replicated(&j),
	}
}
