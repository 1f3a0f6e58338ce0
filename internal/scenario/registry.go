// Package scenario is the declarative layer between experiment code and the
// simulation substrate. It has two halves:
//
//   - a pluggable scheme registry: every end-to-end congestion-control +
//     queue-management combination is a SchemeDef registered by name, carrying
//     factories for its congestion controller and bottleneck queue plus its
//     capabilities (ECN negotiation, whether background web traffic also runs
//     the scheme). New schemes plug in with Register and become usable from
//     every experiment, CLI flag, and JSON scenario without touching them.
//
//   - a topology-agnostic scenario compiler (compile.go): a Spec names a
//     topology (dumbbell or parking-lot template), per-link impairments and
//     schedules, and per-flow-group traffic {scheme, count, endpoints, start
//     window}; Compile builds the netem network and Spawn attaches the
//     traffic, returning measurement handles. The compiler reproduces the
//     exact construction order (and therefore the seeded RNG draw points) of
//     the hand-wired experiment code it replaced, so committed result tables
//     stay bit-identical.
package scenario

import (
	"fmt"
	"sort"

	"pert/internal/netem"
	"pert/internal/sim"
	"pert/internal/tcp"
	"pert/internal/topo"
)

// Env captures what a scheme needs from its scenario to build its pieces:
// the bottleneck capacity in packets/second, a flow-count bound, and an RTT
// bound (PI design rules), plus the target queueing delay for the
// delay-reference AQMs (PI, REM).
type Env struct {
	CapacityPPS float64
	NFlows      int
	MaxRTT      sim.Duration
	TargetDelay sim.Duration // zero = the Section 6.1 default of 3 ms
}

// Target returns the configured target delay, defaulting to 3 ms
// (Section 6.1's PI reference).
func (e Env) Target() sim.Duration {
	if e.TargetDelay == 0 {
		return 3 * sim.Millisecond
	}
	return e.TargetDelay
}

// SchemeDef is one registered scheme: the factories and capabilities that
// used to live in three switch statements. CC and Queue receive the network
// (for its engine RNG) and the scenario Env; both must be side-effect-free
// until the returned factory is invoked, so that resolving a scheme never
// perturbs the simulation state.
type SchemeDef struct {
	// Name is the registry key, e.g. "PERT" or "Sack/RED-ECN".
	Name string
	// CC builds a congestion-controller factory. A controller serves one
	// connection at a time, reset by its Init at each start: a web session
	// calls the factory once and reuses the controller for every object.
	CC func(net *netem.Network, env Env) func() tcp.CongestionControl
	// Queue builds the bottleneck queue factory (applies to both directions
	// of a template's core links).
	Queue func(net *netem.Network, env Env) topo.QueueFactory
	// ECN reports whether endpoints negotiate ECN under this scheme.
	ECN bool
	// ProactiveWeb marks schemes whose background web traffic also runs the
	// scheme's controller (the paper's all-PERT and all-Vegas scenarios);
	// loss-based router schemes leave web transfers on standard TCP.
	ProactiveWeb bool
	// Section4 marks members of the paper's Section 4 comparison set
	// (Figures 6-9, 11, 12 and Table 1).
	Section4 bool
	// ShardSafe marks schemes whose per-connection controllers draw only
	// from their own connection's engine and whose queues either draw
	// nothing or implement netem.RandBinder, so netem.Partition can rebind
	// their marking RNG to the owning domain's engine. Every built-in
	// scheme qualifies today — end-host responders are lazy (built at each
	// connection's Init from c.Engine().Rand()) and the router AQMs (RED,
	// PI, REM, AVQ) are rebound at partition time. Only shard-safe schemes may
	// appear in a Spec with Shards > 1: the flag is the opt-in gate for
	// custom registrations, which cannot be verified mechanically.
	ShardSafe bool
}

// registry holds defs by name plus the registration order (the presentation
// order of the paper's comparison tables).
var (
	registry = map[string]SchemeDef{}
	order    []string
)

// Register adds a scheme definition. Registering an incomplete def or a
// duplicate name panics: registration happens at init time and a bad def is
// a programming error, not an input error.
func Register(def SchemeDef) {
	if def.Name == "" {
		panic("scenario: Register with empty scheme name")
	}
	if def.CC == nil || def.Queue == nil {
		panic(fmt.Sprintf("scenario: scheme %q needs both CC and Queue factories", def.Name))
	}
	if _, dup := registry[def.Name]; dup {
		panic(fmt.Sprintf("scenario: scheme %q registered twice", def.Name))
	}
	registry[def.Name] = def
	order = append(order, def.Name)
}

// Lookup returns the registered definition for name. Unknown names are an
// error — callers validate at load time instead of panicking mid-run.
func Lookup(name string) (SchemeDef, error) {
	def, ok := registry[name]
	if !ok {
		return SchemeDef{}, fmt.Errorf("scenario: unknown scheme %q (known: %v)", name, Names())
	}
	return def, nil
}

// MustLookup is Lookup for callers that have already validated the name
// (experiment entry points running a scheme the registry reported Known).
func MustLookup(name string) SchemeDef {
	def, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return def
}

// Known reports whether name is a registered scheme.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns every registered scheme name in registration order — the
// source for CLI usage strings and -scheme validation.
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Section4Names returns the registered Section 4 comparison set in
// registration order.
func Section4Names() []string {
	var out []string
	for _, n := range order {
		if registry[n].Section4 {
			out = append(out, n)
		}
	}
	return out
}

// SortedNames returns the scheme names sorted lexically (stable output for
// error messages regardless of registration order).
func SortedNames() []string {
	out := Names()
	sort.Strings(out)
	return out
}

// shardSafeNames returns the registered shard-safe schemes in registration
// order, for validation error messages.
func shardSafeNames() []string {
	var out []string
	for _, n := range order {
		if registry[n].ShardSafe {
			out = append(out, n)
		}
	}
	return out
}
