package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// ScenarioConfig is the JSON form of a single-bottleneck scenario, so runs
// can be defined in files and shared (cmd/pertsim -config). Durations are
// Go duration strings ("60ms", "50s").
type ScenarioConfig struct {
	Scheme       string   `json:"scheme"`
	Seed         int64    `json:"seed"`
	BandwidthBps float64  `json:"bandwidth_bps"`
	RTTs         []string `json:"rtts"`
	Flows        int      `json:"flows"`
	ReverseFlows int      `json:"reverse_flows"`
	WebSessions  int      `json:"web_sessions"`
	BufferPkts   int      `json:"buffer_pkts"`
	Duration     string   `json:"duration"`
	MeasureFrom  string   `json:"measure_from"`
	MeasureUntil string   `json:"measure_until,omitempty"` // default duration
	StartWindow  string   `json:"start_window"`
	TargetDelay  string   `json:"target_delay,omitempty"`
	AccessJitter string   `json:"access_jitter,omitempty"`

	// Fault injection on the forward bottleneck (DumbbellSpec impairments);
	// probabilities in [0,1), ReorderExtra a duration string.
	LossRate     float64 `json:"loss_rate,omitempty"`
	DupRate      float64 `json:"dup_rate,omitempty"`
	ReorderRate  float64 `json:"reorder_rate,omitempty"`
	ReorderExtra string  `json:"reorder_extra,omitempty"`

	// Schedule drives mid-run capacity/delay changes and up/down flaps on
	// the forward bottleneck; change times must lie within the duration.
	Schedule []scenario.ChangeConfig `json:"schedule,omitempty"`
}

// LoadScenario parses a JSON scenario and returns the spec and scheme.
func LoadScenario(r io.Reader) (DumbbellSpec, Scheme, error) {
	var c ScenarioConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return DumbbellSpec{}, "", fmt.Errorf("experiments: decoding scenario: %w", err)
	}
	return c.Spec()
}

// Spec converts the config to a runnable spec. The flat schema keeps its own
// parsing and defaults (measure_from = duration/4, start_window = from/2,
// one 60 ms RTT, PERT) but has no rules of its own: what it accepts is what
// DumbbellSpec.Validate — the schema-v2 rule set — accepts.
func (c ScenarioConfig) Spec() (DumbbellSpec, Scheme, error) {
	fail := func(err error) (DumbbellSpec, Scheme, error) { return DumbbellSpec{}, "", err }
	spec := DumbbellSpec{
		Seed:         c.Seed,
		Bandwidth:    c.BandwidthBps,
		Flows:        c.Flows,
		ReverseFlows: c.ReverseFlows,
		WebSessions:  c.WebSessions,
		BufferPkts:   c.BufferPkts,
		LossRate:     c.LossRate,
		DupRate:      c.DupRate,
		ReorderRate:  c.ReorderRate,
	}
	var err error
	// dur parses a Go duration string ("" = def), keeping the first error.
	dur := func(field, s string, def sim.Duration) sim.Duration {
		if s == "" {
			return def
		}
		d, perr := time.ParseDuration(s)
		if perr != nil && err == nil {
			err = fmt.Errorf("experiments: bad %s %q: %w", field, s, perr)
		}
		return sim.Time(d)
	}
	spec.Duration = dur("duration", c.Duration, 0)
	spec.MeasureFrom = dur("measure_from", c.MeasureFrom, spec.Duration/4)
	spec.MeasureUntil = dur("measure_until", c.MeasureUntil, spec.Duration)
	spec.StartWindow = dur("start_window", c.StartWindow, spec.MeasureFrom/2)
	spec.TargetDelay = dur("target_delay", c.TargetDelay, 0)
	spec.AccessJitter = dur("access_jitter", c.AccessJitter, 0)
	spec.ReorderExtra = dur("reorder_extra", c.ReorderExtra, 0)
	for _, s := range c.RTTs {
		spec.RTTs = append(spec.RTTs, dur("rtt", s, 0))
	}
	if err != nil {
		return fail(err)
	}
	if len(c.RTTs) == 0 {
		spec.RTTs = []sim.Duration{60 * sim.Millisecond}
	}
	if spec.Schedule, err = scenario.ParseSchedule(c.Schedule, spec.Duration); err != nil {
		return fail(fmt.Errorf("experiments: %w", err))
	}
	scheme := Scheme(c.Scheme)
	if c.Scheme == "" {
		scheme = PERT
	}
	if err := spec.Validate(scheme); err != nil {
		return fail(err)
	}
	return spec, scheme, nil
}
