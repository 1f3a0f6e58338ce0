package scenario

import (
	"fmt"

	"pert/internal/netem"
	"pert/internal/sim"
)

// TrafficKind selects a flow group's generator.
type TrafficKind string

// FTP is a fleet of unbounded long-term transfers (the paper's long flows);
// Web is a fleet of think/fetch web sessions per Feldmann et al. [11].
const (
	FTP TrafficKind = "ftp"
	Web TrafficKind = "web"
)

// Template names a built-in topology shape.
type Template string

// DumbbellTemplate is the single-bottleneck Section 4 workhorse;
// ParkingLotTemplate is the Figure 10 multi-bottleneck router chain.
const (
	DumbbellTemplate   Template = "dumbbell"
	ParkingLotTemplate Template = "parkinglot"
)

// TopologySpec describes the node/link graph by template. Fields not used by
// the selected template are ignored; zero values take the template defaults
// documented on internal/topo's config structs.
type TopologySpec struct {
	Template Template

	// Dumbbell parameters.
	Bandwidth    float64        // bottleneck rate, bits/s
	Delay        sim.Duration   // bottleneck one-way delay; 0 = RTTs[0]/3
	Hosts        int            // host pairs; 0 = derived from the flow groups
	RTTs         []sim.Duration // end-to-end RTTs, round-robin; 0 = [60ms]
	AccessJitter sim.Duration   // per-packet access-link delay noise bound

	// Parking-lot parameters.
	Routers   int          // core routers; 0 = the paper's 6
	CloudSize int          // hosts per cloud; 0 = the paper's 20
	CoreBW    float64      // core link rate; 0 = the paper's 150 Mbps
	CoreDelay sim.Duration // core one-way delay; 0 = the paper's 5 ms
	// EdgeDelays gives cloud i the attachment delay EdgeDelays[i % len],
	// overriding the paper's uniform 5 ms — heterogeneous RTTs per cloud
	// without perturbing the core chain. Empty keeps the uniform default.
	EdgeDelays []sim.Duration

	// Shared parameters.
	BufferPkts int // core queue size; 0 = the template's BDP rule
	PktSize    int // wire packet size for BDP accounting; 0 = 1040

	// AQM names the registered scheme whose Queue factory builds the core
	// queues (both directions). Empty = the first flow group's scheme.
	AQM string
}

// FlowModel selects how a group's flows are simulated.
type FlowModel string

// PacketModel (the "" default) spawns one real tcp.Conn per flow. FluidModel
// runs the whole group as one PERT/RED fluid aggregate sharing the
// bottleneck queue with the packet traffic — the hybrid substrate, whose
// per-flow cost is zero (counts up to 10^6 are fine). Fluid groups are
// dumbbell-only, scheme "PERT", FTP traffic between unranged "left"/"right"
// endpoints, and serial-only (validateShardable rejects them at shards > 1).
const (
	PacketModel FlowModel = ""
	FluidModel  FlowModel = "fluid"
)

// FlowGroupSpec is one homogeneous traffic population: Count flows of one
// scheme between two endpoint sets. Groups attach in spec order, which fixes
// the RNG draw order of their start times.
type FlowGroupSpec struct {
	Label  string // optional display name; default "<scheme>:<from>-><to>"
	Scheme string // registered scheme; "" = the caller sets Group.CC directly
	Count  int

	// From and To are endpoint selectors: "left" / "right" on a dumbbell,
	// "cloud1".."cloudN" on a parking lot, each with an optional half-open
	// host range suffix "[lo:hi]" (e.g. "left[0:4]"). Flows round-robin
	// over the selected hosts.
	From, To string

	Traffic     TrafficKind  // "" = FTP
	StartWindow sim.Duration // starts uniform in [StartAt, StartAt+StartWindow)
	StartAt     sim.Time

	// Model selects packet simulation ("" — one tcp.Conn per flow) or the
	// fluid aggregate ("fluid"). The JSON loader also accepts the explicit
	// alias "packet", normalized back to "".
	Model FlowModel `json:"Model,omitempty"`

	// RTT is the modeled round-trip time of a fluid group's flows.
	// 0 derives the topology's first configured RTT. Packet groups must
	// leave it unset (their RTTs come from the topology).
	RTT sim.Duration `json:"RTT,omitempty"`
}

// model returns the group's flow model with the "packet" alias normalized.
func (g FlowGroupSpec) model() FlowModel {
	if g.Model == "packet" {
		return PacketModel
	}
	return g.Model
}

// IsFluid reports whether the group runs as a modeled fluid aggregate.
func (g FlowGroupSpec) IsFluid() bool { return g.model() == FluidModel }

// kind returns the group's traffic kind with the FTP default applied.
func (g FlowGroupSpec) kind() TrafficKind {
	if g.Traffic == "" {
		return FTP
	}
	return g.Traffic
}

// label returns the group's display name.
func (g FlowGroupSpec) label() string {
	if g.Label != "" {
		return g.Label
	}
	scheme := g.Scheme
	if scheme == "" {
		scheme = "custom"
	}
	return fmt.Sprintf("%s:%s->%s", scheme, g.From, g.To)
}

// LinkRule attaches impairments and a change schedule to one named link.
// Fault probabilities draw from a dedicated RNG seeded from the scenario
// seed, so all-zero rules leave the run bit-identical to having no rule.
type LinkRule struct {
	Link string // link selector: "forward"/"reverse" or "core1".."coreN"/"rcore1"..

	LossRate     float64      // non-congestive wire-loss probability, [0,1)
	DupRate      float64      // duplication probability, [0,1)
	ReorderRate  float64      // reordering probability, [0,1)
	ReorderExtra sim.Duration // holding-delay bound; 0 with ReorderRate>0 = 5ms

	// Schedule drives mid-run capacity/delay changes and up/down flaps.
	Schedule netem.LinkSchedule
}

// Spec is a complete declarative scenario: topology, per-link rules, traffic
// populations, and the measurement window.
type Spec struct {
	Name string // optional; used in titles and audit bundles
	Seed int64

	Topology TopologySpec
	Links    []LinkRule
	Groups   []FlowGroupSpec

	Duration     sim.Duration // total simulated time
	MeasureFrom  sim.Duration // start of the measurement window
	MeasureUntil sim.Duration // end of the window; 0 = Duration
	TargetDelay  sim.Duration // PI/REM delay reference (default 3 ms)

	// Shards > 1 requests the parallel engine: the topology is cut into
	// that many domains (clamped to the template's useful maximum) and run
	// under conservative-lookahead synchronization. 0 and 1 both mean the
	// serial engine; they produce byte-identical results and hash to the
	// same cache cell. Shards > 1 is a different execution (its own RNG
	// streams per shard) and therefore a different cell.
	Shards int
}

// measureUntil returns the effective window end.
func (s Spec) measureUntil() sim.Duration {
	if s.MeasureUntil == 0 {
		return s.Duration
	}
	return s.MeasureUntil
}

// Validate checks the spec without building anything: unknown schemes, bad
// selectors, inconsistent windows, and schedule entries outside the run are
// all load-time errors rather than mid-run panics.
func (s Spec) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: duration must be positive")
	}
	until := s.measureUntil()
	if s.MeasureFrom < 0 || s.MeasureFrom >= until {
		return fmt.Errorf("scenario: measure window [%v, %v) is empty or negative", s.MeasureFrom, until)
	}
	if until > s.Duration {
		return fmt.Errorf("scenario: measure_until %v exceeds duration %v", until, s.Duration)
	}
	if s.TargetDelay < 0 {
		return fmt.Errorf("scenario: negative target_delay")
	}
	if s.Shards < 0 {
		return fmt.Errorf("scenario: negative shards")
	}
	if s.Shards > sim.MaxShards {
		return fmt.Errorf("scenario: shards %d exceeds the engine maximum %d", s.Shards, sim.MaxShards)
	}
	if err := s.Topology.validate(); err != nil {
		return err
	}
	if aqm := s.queueScheme(); aqm == "" {
		return fmt.Errorf("scenario: no queue discipline: set topology.aqm or give the first group a scheme")
	} else if !Known(aqm) {
		return fmt.Errorf("scenario: unknown aqm scheme %q", aqm)
	}
	traffic := 0
	for i, g := range s.Groups {
		if g.Count < 0 {
			return fmt.Errorf("scenario: group %d has negative count", i)
		}
		traffic += g.Count
		if g.Scheme != "" && !Known(g.Scheme) {
			return fmt.Errorf("scenario: group %d: unknown scheme %q", i, g.Scheme)
		}
		switch g.kind() {
		case FTP, Web:
		default:
			return fmt.Errorf("scenario: group %d: unknown traffic kind %q", i, g.Traffic)
		}
		if g.StartWindow < 0 {
			return fmt.Errorf("scenario: group %d has negative start_window", i)
		}
		if g.StartAt < 0 || sim.Duration(g.StartAt) > s.Duration {
			return fmt.Errorf("scenario: group %d starts at %v, outside the %v run", i, g.StartAt, s.Duration)
		}
		if g.kind() == Web && g.StartAt != 0 {
			return fmt.Errorf("scenario: group %d: web groups cannot set start_at (sessions start inside the start window)", i)
		}
		for _, sel := range []string{g.From, g.To} {
			if err := s.Topology.checkNodeSelector(sel); err != nil {
				return fmt.Errorf("scenario: group %d: %w", i, err)
			}
		}
		switch g.model() {
		case PacketModel:
			if g.RTT != 0 {
				return fmt.Errorf("scenario: group %d: rtt is a fluid-group field; packet groups take their RTTs from the topology", i)
			}
		case FluidModel:
			if err := s.validateFluidGroup(i, g); err != nil {
				return err
			}
		default:
			return fmt.Errorf("scenario: group %d: unknown model %q (use \"packet\" or \"fluid\")", i, g.Model)
		}
	}
	if traffic == 0 {
		return fmt.Errorf("scenario: no traffic: every group has count 0")
	}
	for i, r := range s.Links {
		if err := s.Topology.checkLinkSelector(r.Link); err != nil {
			return fmt.Errorf("scenario: link rule %d: %w", i, err)
		}
		for _, p := range []struct {
			name string
			v    float64
		}{{"loss_rate", r.LossRate}, {"dup_rate", r.DupRate}, {"reorder_rate", r.ReorderRate}} {
			if p.v < 0 || p.v >= 1 {
				return fmt.Errorf("scenario: link rule %d: %s %g outside [0,1)", i, p.name, p.v)
			}
		}
		if r.ReorderExtra < 0 {
			return fmt.Errorf("scenario: link rule %d: negative reorder_extra", i)
		}
		for j, c := range r.Schedule {
			if c.At < 0 || sim.Duration(c.At) > s.Duration {
				return fmt.Errorf("scenario: link rule %d: schedule change %d at %v is outside the %v run", i, j, c.At, s.Duration)
			}
			if c.Capacity < 0 {
				return fmt.Errorf("scenario: link rule %d: schedule change %d has negative capacity", i, j)
			}
			if c.Delay < 0 {
				return fmt.Errorf("scenario: link rule %d: schedule change %d has negative delay", i, j)
			}
			if c.Down && c.Up {
				return fmt.Errorf("scenario: link rule %d: schedule change %d is both down and up", i, j)
			}
		}
	}
	if s.Shards > 1 {
		if err := s.validateShardable(); err != nil {
			return err
		}
	}
	return nil
}

// validateFluidGroup checks the extra constraints on "model": "fluid"
// background groups: the hybrid substrate couples one aggregate to one
// dumbbell bottleneck link, so the template, scheme, traffic kind, and
// endpoint selectors are all pinned.
func (s Spec) validateFluidGroup(i int, g FlowGroupSpec) error {
	if s.Topology.Template != DumbbellTemplate {
		return fmt.Errorf("scenario: group %d: fluid groups need the dumbbell template (the aggregate couples to its bottleneck)", i)
	}
	if g.Scheme != "PERT" {
		return fmt.Errorf("scenario: group %d: fluid groups model the PERT/RED aggregate; set scheme \"PERT\", not %q", i, g.Scheme)
	}
	if g.kind() != FTP {
		return fmt.Errorf("scenario: group %d: fluid groups model long-lived flows; traffic must be ftp, not %q", i, g.Traffic)
	}
	if (g.From != "left" || g.To != "right") && (g.From != "right" || g.To != "left") {
		return fmt.Errorf("scenario: group %d: fluid groups run between the whole \"left\" and \"right\" host sets, got %q -> %q", i, g.From, g.To)
	}
	if g.StartAt != 0 {
		return fmt.Errorf("scenario: group %d: fluid groups start at t=0 (start_at is a packet-group field)", i)
	}
	// The DDE integrates at a 1 ms step and lags must exceed it; 2 ms is
	// the floor that keeps the delayed-state interpolation meaningful.
	rtt := g.RTT
	if rtt == 0 && len(s.Topology.RTTs) > 0 {
		rtt = s.Topology.RTTs[0] // the attach-time default
	}
	if rtt != 0 && rtt < 2*sim.Millisecond {
		return fmt.Errorf("scenario: group %d: fluid rtt %v is below the 2 ms integration floor", i, rtt)
	}
	return nil
}

// validateShardable rejects spec features the parallel engine cannot run.
// After the domain-ownership work (queue RNGs rebound per domain, web
// sessions and link schedules armed on the owning engine) the remaining
// restrictions are the ones with no mechanical fix: schemes must opt in via
// SchemeDef.ShardSafe — a custom CC factory or a scheme that captures the
// global engine cannot be verified — and schedules may not change a link's
// propagation delay, because a boundary link's conservative lookahead is
// fixed when the partition is cut. (The check is conservative: it applies to
// every scheduled link, since which links become boundaries depends on the
// runtime partition hint. netem.Partition enforces the precise
// boundary-only rule.)
func (s Spec) validateShardable() error {
	if aqm := s.queueScheme(); aqm != "" && Known(aqm) {
		if !registry[aqm].ShardSafe {
			return fmt.Errorf("scenario: shards=%d: aqm scheme %q is not shard-safe; shard-safe schemes: %v", s.Shards, aqm, shardSafeNames())
		}
	}
	for i, g := range s.Groups {
		if g.IsFluid() {
			return fmt.Errorf("scenario: shards=%d: group %d models background traffic as a fluid aggregate; the hybrid fluid/packet substrate is serial-only until cross-domain fluid coupling exists — drop shards or the fluid group", s.Shards, i)
		}
		if g.Scheme == "" {
			return fmt.Errorf("scenario: shards=%d: group %d has no registered scheme; custom CC factories cannot be verified shard-safe", s.Shards, i)
		}
		if !registry[g.Scheme].ShardSafe {
			return fmt.Errorf("scenario: shards=%d: group %d scheme %q is not shard-safe; shard-safe schemes: %v", s.Shards, i, g.Scheme, shardSafeNames())
		}
	}
	for i, r := range s.Links {
		if r.Schedule.HasDelayChange() {
			return fmt.Errorf("scenario: shards=%d: link rule %d schedules a delay change; boundary lookahead is fixed at partition time, so sharded runs take capacity changes and up/down flaps only", s.Shards, i)
		}
	}
	return nil
}

// Canonical returns a copy of the spec with its alias defaults made
// explicit — the zero-value spellings the spec's own accessors define:
// traffic kind ("" ≡ "ftp"), measure_until (0 ≡ duration), and the queue
// scheme ("" ≡ the first group's scheme). Semantically identical documents
// that differ only in eliding these serialize identically, which is what
// the content-addressed result cache hashes. Topology zeros that the
// compiler *derives* (buffer from BDP, delay from RTT) are deliberately not
// expanded: those rules live in the compiler and an explicit value equal to
// the derivation is a coincidence, not an alias.
func (s Spec) Canonical() Spec {
	out := s
	out.Groups = append([]FlowGroupSpec(nil), s.Groups...)
	for i := range out.Groups {
		out.Groups[i].Traffic = out.Groups[i].kind()
		// "" is the canonical packet-model spelling (so pre-hybrid specs
		// keep their serialized form and cache keys); the explicit
		// "packet" alias normalizes back to it. Fluid groups ignore start
		// scheduling, so the loader's start_window default is noise —
		// zero it rather than fork cache cells over an unused field.
		out.Groups[i].Model = out.Groups[i].model()
		if out.Groups[i].IsFluid() {
			out.Groups[i].StartWindow = 0
		}
	}
	out.MeasureUntil = s.measureUntil()
	out.Topology.AQM = s.queueScheme()
	// 0 and 1 shards are the same serial execution; canonicalize to 0 so
	// they hash to the same cache cell. Counts above 1 are kept verbatim
	// (NOT clamped to the topology maximum): the clamp happens at run time,
	// and collapsing, say, shards=8 and shards=6 on a 6-router lot into one
	// cell would be correct but surprising — the spec author asked for
	// different things and can diff the cells.
	if out.Shards <= 1 {
		out.Shards = 0
	}
	return out
}

// EffectiveShards returns the shard count a run of this spec actually uses:
// the requested count clamped to the topology's useful maximum (a dumbbell
// has one cut; a parking lot has one domain per router). Always ≥ 1.
func (s Spec) EffectiveShards() int {
	eff, _, _ := s.ShardClamp()
	return eff
}

// ShardClamp resolves the requested shard count against the topology: it
// returns the effective count, whether the request was clamped down, and
// the topology's useful maximum. Runners surface clamping through their
// progress sink / table notes so a `-shards 8` request silently running at
// 2 is visible in the output rather than only in the wall clock.
func (s Spec) ShardClamp() (effective int, clamped bool, max int) {
	max = 2 // dumbbell: the bottleneck is the only useful cut
	if s.Topology.Template == ParkingLotTemplate {
		max = s.Topology.routers()
	}
	if s.Shards <= 1 {
		return 1, false, max
	}
	if s.Shards > max {
		return max, true, max
	}
	return s.Shards, false, max
}

// queueScheme resolves the scheme name whose Queue factory builds the core
// queues: the explicit AQM, falling back to the first group with a scheme.
func (s Spec) queueScheme() string {
	if s.Topology.AQM != "" {
		return s.Topology.AQM
	}
	for _, g := range s.Groups {
		if g.Scheme != "" {
			return g.Scheme
		}
	}
	return ""
}

// env derives the scheme environment from the spec: total long-flow count,
// core capacity, and the largest configured RTT.
func (s Spec) env() Env {
	env := Env{TargetDelay: s.TargetDelay}
	for _, g := range s.Groups {
		// Fluid groups do not spawn connections; the scheme environment
		// (per-conn parameter scaling) sees only the packet population.
		if g.kind() == FTP && !g.IsFluid() {
			env.NFlows += g.Count
		}
	}
	pkt := s.Topology.PktSize
	if pkt == 0 {
		pkt = 1040
	}
	switch s.Topology.Template {
	case ParkingLotTemplate:
		bw := s.Topology.CoreBW
		if bw == 0 {
			bw = 150e6
		}
		env.CapacityPPS = bw / (8 * float64(pkt))
		// The parking lot's buffer rule assumes a 60 ms end-to-end RTT;
		// the PI design bound uses the same figure.
		env.MaxRTT = 60 * sim.Millisecond
	default:
		env.CapacityPPS = s.Topology.Bandwidth / (8 * float64(pkt))
		rtts := s.Topology.RTTs
		if len(rtts) == 0 {
			rtts = []sim.Duration{60 * sim.Millisecond}
		}
		env.MaxRTT = rtts[0]
		for _, r := range rtts {
			if r > env.MaxRTT {
				env.MaxRTT = r
			}
		}
	}
	return env
}
