package scenario

import (
	"fmt"

	"pert/internal/netem"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
	"pert/internal/trafficgen"
)

// Group is one compiled flow group: resolved endpoints plus the attach-time
// configuration. Between Compile and Spawn a caller may override CC and Conn
// (custom controllers, RTT-sampling hooks); after Spawn, Flows/Webs hold the
// measurement handles.
type Group struct {
	Spec FlowGroupSpec

	// CC builds one congestion controller per flow. Compile resolves it
	// from the group's scheme; groups with an empty Scheme leave it nil for
	// the caller to set before Spawn.
	CC func() tcp.CongestionControl
	// Conn is the per-connection base config (ECN from the scheme; callers
	// may chain hooks onto it before Spawn).
	Conn tcp.Config
	// Web carries extra web-session parameters for Web groups; CC and Conn
	// above are copied into it at Spawn.
	Web trafficgen.WebConfig

	Src, Dst []*netem.Node

	Flows []*tcp.Flow              // FTP groups, after Spawn
	Webs  []*trafficgen.WebSession // Web groups, after Spawn
	Fluid *netem.FluidSource       // fluid groups, after Spawn
}

// Label returns the group's display name.
func (g *Group) Label() string { return g.Spec.label() }

// Instance is a compiled scenario: the built topology with impairments and
// schedules attached, and the flow groups resolved but not yet spawned.
// The two-phase Compile/Spawn split leaves a hook point where experiment
// code wires observers (auditor, metrics registry, delay monitors) exactly
// where the hand-written scenarios did, preserving event-scheduling order.
type Instance struct {
	Spec Spec
	Eng  *sim.Engine
	Net  *netem.Network
	Topo Built
	Env  Env

	Groups []*Group

	spawned bool
}

// Compile builds the scenario's network on the given engine: topology first,
// then per-link impairments and change schedules in rule order, then group
// resolution (no traffic yet — call Spawn). The construction order is a
// compatibility contract: it consumes engine event sequence numbers and RNG
// draws at the same program points as the hand-wired experiment scenarios,
// keeping committed tables bit-identical.
func Compile(eng *sim.Engine, net *netem.Network, spec Spec) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	env := spec.env()
	qf := MustLookup(spec.queueScheme()).Queue(net, env) // Validate checked the scheme

	inst := &Instance{Spec: spec, Eng: eng, Net: net, Env: env}
	switch spec.Topology.Template {
	case DumbbellTemplate:
		inst.Topo = dumbbellBuilt{buildDumbbell(net, spec, qf)}
	case ParkingLotTemplate:
		inst.Topo = parkinglotBuilt{topo.NewParkingLot(net, topo.ParkingLotConfig{
			Routers:    spec.Topology.routers(),
			CloudSize:  spec.Topology.cloudSize(),
			CoreBW:     spec.Topology.CoreBW,
			CoreDelay:  spec.Topology.CoreDelay,
			EdgeDelays: spec.Topology.EdgeDelays,
			BufferPkts: spec.Topology.BufferPkts,
			PktSize:    spec.Topology.PktSize,
			Queue:      qf,
		})}
	}

	for i, rule := range spec.Links {
		link, err := inst.Topo.Link(rule.Link)
		if err != nil {
			return nil, fmt.Errorf("scenario: link rule %d: %w", i, err)
		}
		if rule.LossRate > 0 || rule.DupRate > 0 || rule.ReorderRate > 0 {
			imp := netem.NewImpairment(impairSeed(spec.Seed, i))
			imp.Loss, imp.Dup, imp.Reorder = rule.LossRate, rule.DupRate, rule.ReorderRate
			imp.ReorderMax = rule.ReorderExtra
			if imp.Reorder > 0 && imp.ReorderMax <= 0 {
				imp.ReorderMax = 5 * sim.Millisecond
			}
			link.SetImpairment(imp)
		}
		rule.Schedule.Apply(link)
	}

	for i := range spec.Groups {
		g := &Group{Spec: spec.Groups[i]}
		if g.Spec.IsFluid() {
			// Fluid groups spawn no connections: no endpoints to
			// resolve, no CC factory, no RNG draws. Spawn attaches the
			// aggregate to the bottleneck link directly.
			inst.Groups = append(inst.Groups, g)
			continue
		}
		var err error
		if g.Src, err = inst.Topo.Nodes(g.Spec.From); err != nil {
			return nil, fmt.Errorf("scenario: group %d: %w", i, err)
		}
		if g.Dst, err = inst.Topo.Nodes(g.Spec.To); err != nil {
			return nil, fmt.Errorf("scenario: group %d: %w", i, err)
		}
		if g.Spec.Count > 0 && (len(g.Src) == 0 || len(g.Dst) == 0) {
			return nil, fmt.Errorf("scenario: group %d (%s): empty endpoint set", i, g.Spec.label())
		}
		if g.Spec.Scheme != "" {
			def := MustLookup(g.Spec.Scheme) // Validate checked it
			g.Conn = tcp.Config{ECN: def.ECN}
			if g.Spec.kind() == Web && !def.ProactiveWeb {
				// Background web traffic stays on standard TCP unless the
				// scheme runs on every end host (the all-PERT scenarios).
				g.CC = func() tcp.CongestionControl { return tcp.Reno{} }
			} else {
				g.CC = def.CC(net, env)
			}
		}
		inst.Groups = append(inst.Groups, g)
	}
	return inst, nil
}

// buildDumbbell maps the spec onto topo.NewDumbbell, deriving the host count
// from the flow groups when the spec leaves it open.
func buildDumbbell(net *netem.Network, spec Spec, qf topo.QueueFactory) *topo.Dumbbell {
	t := spec.Topology
	hosts := t.Hosts
	if hosts == 0 {
		for _, g := range spec.Groups {
			if g.IsFluid() {
				// A million modeled flows need zero hosts; only packet
				// groups size the topology.
				continue
			}
			for _, s := range []string{g.From, g.To} {
				sel, err := parseSelector(s)
				if err != nil {
					continue // Validate already rejected it
				}
				if n := sel.need(g.Count); n > hosts {
					hosts = n
				}
			}
		}
		if hosts < 1 {
			hosts = 1
		}
		// Hosts are shared round-robin; cap the node count so huge groups
		// do not build thousands of nodes needlessly.
		if hosts > 256 {
			hosts = 256
		}
	}
	rtts := t.RTTs
	if len(rtts) == 0 {
		rtts = []sim.Duration{60 * sim.Millisecond}
	}
	delay := t.Delay
	if delay == 0 {
		delay = rtts[0] / 3
	}
	return topo.NewDumbbell(net, topo.DumbbellConfig{
		Bandwidth:    t.Bandwidth,
		Delay:        delay,
		Hosts:        hosts,
		RTTs:         rtts,
		BufferPkts:   t.BufferPkts,
		AccessJitter: t.AccessJitter,
		PktSize:      t.PktSize,
		Queue:        qf,
	})
}

// impairSeed derives the dedicated fault-RNG seed for link rule i. Rule 0
// uses the historical constant, so a Section 4 cell's forward rule (its
// Links[0]) reproduces the fault sequences of the hand-wired dumbbell the
// committed tables were recorded on; later rules mix in the rule index so
// each link gets an independent stream.
func impairSeed(seed int64, i int) int64 {
	return seed ^ 0xfa017 ^ int64(uint64(i)*0x9e3779b97f4a7c15)
}

// Dumbbell returns the underlying dumbbell topology, or nil for other
// templates — the handle Instrument-style hooks and dumbbell-specific
// measurement code use.
func (inst *Instance) Dumbbell() *topo.Dumbbell {
	if b, ok := inst.Topo.(dumbbellBuilt); ok {
		return b.d
	}
	return nil
}

// ParkingLot returns the underlying parking-lot topology, or nil.
func (inst *Instance) ParkingLot() *topo.ParkingLot {
	if b, ok := inst.Topo.(parkinglotBuilt); ok {
		return b.p
	}
	return nil
}

// Spawn attaches every flow group's traffic in spec order, drawing start
// times from the engine RNG exactly as the hand-wired scenarios did, and
// fills in the per-group measurement handles. Call it once, after wiring
// any observers, before running the engine.
func (inst *Instance) Spawn() {
	if inst.spawned {
		panic("scenario: Spawn called twice")
	}
	inst.spawned = true
	ids := trafficgen.NewIDs()
	for i, g := range inst.Groups {
		if g.Spec.IsFluid() {
			if g.Spec.Count > 0 {
				g.Fluid = inst.attachFluid(i, g.Spec)
			}
			continue
		}
		switch g.Spec.kind() {
		case Web:
			if g.Spec.Count > 0 || g.CC != nil {
				cfg := g.Web
				cfg.CC = g.CC
				cfg.Conn = g.Conn
				g.Webs = trafficgen.WebFleet(inst.Net, ids, g.Src, g.Dst, g.Spec.Count, cfg, g.Spec.StartWindow)
			}
		default:
			if g.Spec.Count > 0 || g.CC != nil {
				g.Flows = trafficgen.FTPFleet(inst.Net, ids, g.Src, g.Dst, g.Spec.Count, trafficgen.FTPConfig{
					CC:          g.CC,
					Conn:        g.Conn,
					StartWindow: g.Spec.StartWindow,
					StartAt:     g.Spec.StartAt,
				})
			}
		}
	}
}

// attachFluid couples one fluid background group to the dumbbell bottleneck:
// left->right rides the forward link, right->left the reverse. The modeled
// RTT defaults to the topology's first configured RTT, and the shared-queue
// bound is the same buffer the packet queue uses, so overflow loss treats
// both traffic kinds alike.
func (inst *Instance) attachFluid(i int, g FlowGroupSpec) *netem.FluidSource {
	sel := "forward"
	if g.From == "right" {
		sel = "reverse"
	}
	link, err := inst.Topo.Link(sel)
	if err != nil {
		panic(fmt.Sprintf("scenario: fluid group %d: %v", i, err)) // unreachable: dumbbell always has both
	}
	rtt := g.RTT
	if rtt == 0 {
		if rtts := inst.Spec.Topology.RTTs; len(rtts) > 0 {
			rtt = rtts[0]
		} else {
			rtt = 60 * sim.Millisecond
		}
	}
	fs, err := netem.AttachFluid(link, netem.FluidConfig{
		Flows:      float64(g.Count),
		RTT:        rtt.Seconds(),
		PktSize:    inst.Spec.Topology.PktSize, // 0 = AttachFluid's 1040 default
		BufferPkts: inst.Topo.BufferPkts(),
	})
	if err != nil {
		panic(fmt.Sprintf("scenario: fluid group %d: %v", i, err)) // Validate pinned the preconditions
	}
	return fs
}
