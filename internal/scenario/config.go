package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pert/internal/netem"
	"pert/internal/sim"
)

// Config is the JSON form of a Spec — scenario schema v2, documented in
// EXPERIMENTS.md ("Scenario schema v2"). Durations are Go duration strings
// ("60ms", "50s"); empty strings take the documented defaults. A file names
// a topology template and any number of per-scheme flow groups, so
// mixed-scheme runs on arbitrary templates need no Go code.
type Config struct {
	Name string `json:"name,omitempty"`
	Seed int64  `json:"seed"`

	Topology TopologyConfig `json:"topology"`
	Groups   []GroupConfig  `json:"groups"`
	Links    []LinkConfig   `json:"links,omitempty"`

	Duration     string `json:"duration"`
	MeasureFrom  string `json:"measure_from,omitempty"`  // default duration/4
	MeasureUntil string `json:"measure_until,omitempty"` // default duration
	TargetDelay  string `json:"target_delay,omitempty"`

	// Shards > 1 requests the parallel engine (see Spec.Shards).
	Shards int `json:"shards,omitempty"`
}

// TopologyConfig is the JSON form of a TopologySpec.
type TopologyConfig struct {
	Template string `json:"template"`

	// Dumbbell.
	BandwidthBps float64  `json:"bandwidth_bps,omitempty"`
	Delay        string   `json:"delay,omitempty"`
	Hosts        int      `json:"hosts,omitempty"`
	RTTs         []string `json:"rtts,omitempty"`
	AccessJitter string   `json:"access_jitter,omitempty"`

	// Parking lot.
	Routers    int      `json:"routers,omitempty"`
	CloudSize  int      `json:"cloud_size,omitempty"`
	CoreBwBps  float64  `json:"core_bw_bps,omitempty"`
	CoreDelay  string   `json:"core_delay,omitempty"`
	EdgeDelays []string `json:"edge_delays,omitempty"` // per-cloud, round-robin

	// Shared.
	BufferPkts int    `json:"buffer_pkts,omitempty"`
	PktSize    int    `json:"pkt_size,omitempty"`
	AQM        string `json:"aqm,omitempty"`
}

// GroupConfig is the JSON form of a FlowGroupSpec.
type GroupConfig struct {
	Label       string `json:"label,omitempty"`
	Scheme      string `json:"scheme"`
	Count       int    `json:"count"`
	From        string `json:"from"`
	To          string `json:"to"`
	Traffic     string `json:"traffic,omitempty"`      // "ftp" (default) or "web"
	StartWindow string `json:"start_window,omitempty"` // default measure_from/2
	StartAt     string `json:"start_at,omitempty"`

	// Model: "packet" (default) spawns one tcp.Conn per flow; "fluid" runs
	// the group as one modeled PERT/RED aggregate on the bottleneck — the
	// hybrid substrate's background traffic, with counts up to 10^6.
	Model string `json:"model,omitempty"`
	// RTT is the modeled round-trip time of a fluid group ("60ms");
	// default: the topology's first RTT. Fluid groups only.
	RTT string `json:"rtt,omitempty"`
}

// LinkConfig is the JSON form of a LinkRule.
type LinkConfig struct {
	Link string `json:"link"`

	LossRate     float64 `json:"loss_rate,omitempty"`
	DupRate      float64 `json:"dup_rate,omitempty"`
	ReorderRate  float64 `json:"reorder_rate,omitempty"`
	ReorderExtra string  `json:"reorder_extra,omitempty"`

	Schedule []ChangeConfig `json:"schedule,omitempty"`
}

// ChangeConfig is the JSON form of one netem.LinkChange.
type ChangeConfig struct {
	At          string  `json:"at"`
	CapacityBps float64 `json:"capacity_bps,omitempty"`
	Delay       string  `json:"delay,omitempty"`
	Down        bool    `json:"down,omitempty"`
	Up          bool    `json:"up,omitempty"`
}

// Load parses and validates a v2 JSON scenario.
func Load(r io.Reader) (Spec, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding schema v2: %w", err)
	}
	return c.Spec()
}

// Spec converts the config to a validated Spec.
func (c Config) Spec() (Spec, error) {
	fail := func(err error) (Spec, error) { return Spec{}, err }
	dur, err := parseDur(c.Duration, 0)
	if err != nil || dur <= 0 {
		return fail(fmt.Errorf("scenario: bad duration %q", c.Duration))
	}
	from, err := parseDur(c.MeasureFrom, dur/4)
	if err != nil {
		return fail(fmt.Errorf("scenario: bad measure_from %q", c.MeasureFrom))
	}
	until, err := parseDur(c.MeasureUntil, dur)
	if err != nil {
		return fail(fmt.Errorf("scenario: bad measure_until %q", c.MeasureUntil))
	}
	target, err := parseDur(c.TargetDelay, 0)
	if err != nil {
		return fail(fmt.Errorf("scenario: bad target_delay %q", c.TargetDelay))
	}

	topoSpec, err := c.Topology.spec()
	if err != nil {
		return fail(err)
	}
	s := Spec{
		Name:         c.Name,
		Seed:         c.Seed,
		Topology:     topoSpec,
		Duration:     dur,
		MeasureFrom:  from,
		MeasureUntil: until,
		TargetDelay:  target,
		Shards:       c.Shards,
	}
	for i, g := range c.Groups {
		sw, err := parseDur(g.StartWindow, from/2)
		if err != nil || sw < 0 {
			return fail(fmt.Errorf("scenario: group %d: bad start_window %q", i, g.StartWindow))
		}
		at, err := parseDur(g.StartAt, 0)
		if err != nil {
			return fail(fmt.Errorf("scenario: group %d: bad start_at %q", i, g.StartAt))
		}
		if g.Scheme == "" {
			return fail(fmt.Errorf("scenario: group %d needs a scheme (known: %v)", i, Names()))
		}
		rtt, err := parseDur(g.RTT, 0)
		if err != nil || rtt < 0 {
			return fail(fmt.Errorf("scenario: group %d: bad rtt %q", i, g.RTT))
		}
		s.Groups = append(s.Groups, FlowGroupSpec{
			Label:       g.Label,
			Scheme:      g.Scheme,
			Count:       g.Count,
			From:        g.From,
			To:          g.To,
			Traffic:     TrafficKind(g.Traffic),
			StartWindow: sw,
			StartAt:     sim.Time(at),
			Model:       FlowModel(g.Model),
			RTT:         rtt,
		})
	}
	for i, l := range c.Links {
		extra, err := parseDur(l.ReorderExtra, 0)
		if err != nil || extra < 0 {
			return fail(fmt.Errorf("scenario: link rule %d: bad reorder_extra %q", i, l.ReorderExtra))
		}
		rule := LinkRule{
			Link:         l.Link,
			LossRate:     l.LossRate,
			DupRate:      l.DupRate,
			ReorderRate:  l.ReorderRate,
			ReorderExtra: extra,
		}
		if rule.Schedule, err = parseSchedule(l.Schedule, dur); err != nil {
			return fail(fmt.Errorf("scenario: link rule %d: %w", i, err))
		}
		s.Links = append(s.Links, rule)
	}
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	return s, nil
}

// spec converts the topology config.
func (t TopologyConfig) spec() (TopologySpec, error) {
	out := TopologySpec{
		Template:   Template(t.Template),
		Bandwidth:  t.BandwidthBps,
		Hosts:      t.Hosts,
		Routers:    t.Routers,
		CloudSize:  t.CloudSize,
		CoreBW:     t.CoreBwBps,
		BufferPkts: t.BufferPkts,
		PktSize:    t.PktSize,
		AQM:        t.AQM,
	}
	var err error
	if out.Delay, err = parseDur(t.Delay, 0); err != nil || out.Delay < 0 {
		return out, fmt.Errorf("scenario: bad topology delay %q", t.Delay)
	}
	if out.AccessJitter, err = parseDur(t.AccessJitter, 0); err != nil || out.AccessJitter < 0 {
		return out, fmt.Errorf("scenario: bad access_jitter %q", t.AccessJitter)
	}
	if out.CoreDelay, err = parseDur(t.CoreDelay, 0); err != nil || out.CoreDelay < 0 {
		return out, fmt.Errorf("scenario: bad core_delay %q", t.CoreDelay)
	}
	for _, s := range t.RTTs {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return out, fmt.Errorf("scenario: bad rtt %q", s)
		}
		out.RTTs = append(out.RTTs, sim.Time(d))
	}
	for _, s := range t.EdgeDelays {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return out, fmt.Errorf("scenario: bad edge delay %q", s)
		}
		out.EdgeDelays = append(out.EdgeDelays, sim.Time(d))
	}
	return out, nil
}

// parseSchedule converts JSON change configs into a link schedule, rejecting
// changes outside [0, dur] and contradictory flap states at load time (the
// netem layer panics on them at apply time).
func parseSchedule(changes []ChangeConfig, dur sim.Duration) (netem.LinkSchedule, error) {
	var out netem.LinkSchedule
	for j, ch := range changes {
		at, err := parseDur(ch.At, -1)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("schedule change %d: bad time %q", j, ch.At)
		}
		if at > dur {
			return nil, fmt.Errorf("schedule change %d at %v exceeds the %v duration", j, at, dur)
		}
		delay, err := parseDur(ch.Delay, 0)
		if err != nil || delay < 0 {
			return nil, fmt.Errorf("schedule change %d: bad delay %q", j, ch.Delay)
		}
		if ch.CapacityBps < 0 {
			return nil, fmt.Errorf("schedule change %d: negative capacity", j)
		}
		if ch.Down && ch.Up {
			return nil, fmt.Errorf("schedule change %d is both down and up", j)
		}
		out = append(out, netem.LinkChange{
			At:       sim.Time(at),
			Capacity: ch.CapacityBps,
			Delay:    delay,
			Down:     ch.Down,
			Up:       ch.Up,
		})
	}
	return out, nil
}

// parseDur parses a Go duration string, returning def for "".
func parseDur(s string, def sim.Duration) (sim.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Time(d), nil
}
