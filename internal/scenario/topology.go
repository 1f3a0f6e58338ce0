package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"pert/internal/netem"
	"pert/internal/topo"
)

// NamedLink is one measurable core link of a built topology.
type NamedLink struct {
	Name string
	Link *netem.Link
}

// Built is a compiled topology: endpoint sets and core links addressable by
// the same selector strings the Spec uses.
type Built interface {
	// Nodes resolves an endpoint selector ("left", "cloud3[0:4]", ...).
	Nodes(sel string) ([]*netem.Node, error)
	// Link resolves a link selector ("forward", "core2", "rcore2", ...).
	Link(sel string) (*netem.Link, error)
	// Measured lists the primary-direction core links in order — the links
	// generic runs meter for the standard panels.
	Measured() []NamedLink
	// BufferPkts is the realized core queue size in packets.
	BufferPkts() int
	// CapacityPPS is the core capacity in packets/second.
	CapacityPPS() float64
	// PartitionHint maps every node ID to a shard for a parallel run with
	// the given shard count (clamped to the template's useful maximum).
	// Every cut the hint makes falls on a positive-delay core link, so the
	// assignment is always valid for netem.Partition.
	PartitionHint(shards int) []int
}

// selector is a parsed endpoint/link selector: a base name plus an optional
// half-open index range.
type selector struct {
	base     string
	lo, hi   int
	hasRange bool
}

// parseSelector splits "name[lo:hi]" into its parts.
func parseSelector(s string) (selector, error) {
	out := selector{base: s}
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return out, nil
	}
	if !strings.HasSuffix(s, "]") {
		return out, fmt.Errorf("bad selector %q: unterminated range", s)
	}
	out.base = s[:i]
	r := s[i+1 : len(s)-1]
	j := strings.IndexByte(r, ':')
	if j < 0 {
		return out, fmt.Errorf("bad selector %q: range must be lo:hi", s)
	}
	lo, err := strconv.Atoi(r[:j])
	if err != nil {
		return out, fmt.Errorf("bad selector %q: %v", s, err)
	}
	hi, err := strconv.Atoi(r[j+1:])
	if err != nil {
		return out, fmt.Errorf("bad selector %q: %v", s, err)
	}
	if lo < 0 || hi < lo {
		return out, fmt.Errorf("bad selector %q: range [%d:%d) is invalid", s, lo, hi)
	}
	out.lo, out.hi, out.hasRange = lo, hi, true
	return out, nil
}

// slice applies the selector's range to a node set.
func (s selector) slice(nodes []*netem.Node) ([]*netem.Node, error) {
	if !s.hasRange {
		return nodes, nil
	}
	if s.hi > len(nodes) {
		return nil, fmt.Errorf("selector %q[%d:%d) exceeds the %d available hosts", s.base, s.lo, s.hi, len(nodes))
	}
	return nodes[s.lo:s.hi], nil
}

// need reports how many hosts the selector requires on its side when the
// group has the given flow count (used to derive dumbbell Hosts).
func (s selector) need(count int) int {
	if s.hasRange {
		return s.hi
	}
	return count
}

// validate checks the template and its parameters without building.
func (t TopologySpec) validate() error {
	switch t.Template {
	case DumbbellTemplate:
		if t.Bandwidth <= 0 {
			return fmt.Errorf("scenario: dumbbell needs a positive bandwidth")
		}
		// Each direction crosses two access links and the bottleneck, so an
		// RTT below twice the bottleneck delay has no realizing access delay.
		delay := t.Delay
		if delay == 0 && len(t.RTTs) > 0 {
			delay = t.RTTs[0] / 3
		}
		for _, r := range t.RTTs {
			if r <= 0 {
				return fmt.Errorf("scenario: non-positive rtt %v", r)
			}
			if r < 2*delay {
				return fmt.Errorf("scenario: rtt %v is below twice the %v bottleneck delay, the shortest a dumbbell path realizes", r, delay)
			}
		}
	case ParkingLotTemplate:
		if t.Routers == 1 {
			return fmt.Errorf("scenario: parking lot needs at least two routers")
		}
		if t.Routers < 0 || t.CloudSize < 0 {
			return fmt.Errorf("scenario: negative parking-lot size")
		}
		if t.CoreBW < 0 {
			return fmt.Errorf("scenario: negative core bandwidth")
		}
		for _, d := range t.EdgeDelays {
			if d < 0 {
				return fmt.Errorf("scenario: negative edge delay %v", d)
			}
		}
	default:
		return fmt.Errorf("scenario: unknown topology template %q (want %q or %q)", t.Template, DumbbellTemplate, ParkingLotTemplate)
	}
	if t.BufferPkts < 0 || t.PktSize < 0 || t.Hosts < 0 {
		return fmt.Errorf("scenario: negative topology size field")
	}
	if t.AccessJitter < 0 || t.Delay < 0 || t.CoreDelay < 0 {
		return fmt.Errorf("scenario: negative topology delay field")
	}
	return nil
}

// routers returns the parking-lot router count with the paper default.
func (t TopologySpec) routers() int {
	if t.Routers == 0 {
		return 6
	}
	return t.Routers
}

// cloudSize returns the parking-lot cloud size with the paper default.
func (t TopologySpec) cloudSize() int {
	if t.CloudSize == 0 {
		return 20
	}
	return t.CloudSize
}

// checkNodeSelector verifies an endpoint selector fits the template.
func (t TopologySpec) checkNodeSelector(s string) error {
	sel, err := parseSelector(s)
	if err != nil {
		return err
	}
	switch t.Template {
	case DumbbellTemplate:
		if sel.base != "left" && sel.base != "right" {
			return fmt.Errorf("bad endpoint %q: a dumbbell has %q and %q", s, "left", "right")
		}
		if sel.hasRange && t.Hosts > 0 && sel.hi > t.Hosts {
			return fmt.Errorf("endpoint %q exceeds the %d host pairs", s, t.Hosts)
		}
	case ParkingLotTemplate:
		i, err := cloudIndex(sel.base)
		if err != nil {
			return fmt.Errorf("bad endpoint %q: %w", s, err)
		}
		if i < 1 || i > t.routers() {
			return fmt.Errorf("endpoint %q: cloud index outside 1..%d", s, t.routers())
		}
		if sel.hasRange && sel.hi > t.cloudSize() {
			return fmt.Errorf("endpoint %q exceeds the %d hosts per cloud", s, t.cloudSize())
		}
	}
	return nil
}

// checkLinkSelector verifies a link selector fits the template.
func (t TopologySpec) checkLinkSelector(s string) error {
	switch t.Template {
	case DumbbellTemplate:
		if s != "forward" && s != "reverse" {
			return fmt.Errorf("bad link %q: a dumbbell has %q and %q", s, "forward", "reverse")
		}
	case ParkingLotTemplate:
		i, err := coreIndex(s)
		if err != nil {
			return fmt.Errorf("bad link %q: %w", s, err)
		}
		if i < 1 || i >= t.routers() {
			return fmt.Errorf("link %q: core index outside 1..%d", s, t.routers()-1)
		}
	}
	return nil
}

// cloudIndex parses "cloudN" (1-based).
func cloudIndex(base string) (int, error) {
	if !strings.HasPrefix(base, "cloud") {
		return 0, fmt.Errorf("a parking lot has clouds %q..%q", "cloud1", "cloudN")
	}
	return strconv.Atoi(base[len("cloud"):])
}

// coreIndex parses "coreN" or "rcoreN" (1-based; rcore is the reverse
// direction of core link N).
func coreIndex(s string) (int, error) {
	s = strings.TrimPrefix(s, "r")
	if !strings.HasPrefix(s, "core") {
		return 0, fmt.Errorf("a parking lot has links %q/%q..", "core1", "rcore1")
	}
	return strconv.Atoi(s[len("core"):])
}

// dumbbellBuilt adapts topo.Dumbbell to the Built interface.
type dumbbellBuilt struct{ d *topo.Dumbbell }

func (b dumbbellBuilt) Nodes(s string) ([]*netem.Node, error) {
	sel, err := parseSelector(s)
	if err != nil {
		return nil, err
	}
	switch sel.base {
	case "left":
		return sel.slice(b.d.Left)
	case "right":
		return sel.slice(b.d.Right)
	}
	return nil, fmt.Errorf("bad endpoint %q: a dumbbell has %q and %q", s, "left", "right")
}

func (b dumbbellBuilt) Link(s string) (*netem.Link, error) {
	switch s {
	case "forward":
		return b.d.Forward, nil
	case "reverse":
		return b.d.Reverse, nil
	}
	return nil, fmt.Errorf("bad link %q: a dumbbell has %q and %q", s, "forward", "reverse")
}

func (b dumbbellBuilt) Measured() []NamedLink {
	return []NamedLink{{Name: "forward", Link: b.d.Forward}}
}

func (b dumbbellBuilt) BufferPkts() int           { return b.d.BufferPkts }
func (b dumbbellBuilt) CapacityPPS() float64      { return b.d.CapacityPPS }
func (b dumbbellBuilt) PartitionHint(n int) []int { return b.d.PartitionHint(n) }

// parkinglotBuilt adapts topo.ParkingLot to the Built interface.
type parkinglotBuilt struct{ p *topo.ParkingLot }

func (b parkinglotBuilt) Nodes(s string) ([]*netem.Node, error) {
	sel, err := parseSelector(s)
	if err != nil {
		return nil, err
	}
	i, err := cloudIndex(sel.base)
	if err != nil {
		return nil, fmt.Errorf("bad endpoint %q: %w", s, err)
	}
	if i < 1 || i > len(b.p.Clouds) {
		return nil, fmt.Errorf("endpoint %q: cloud index outside 1..%d", s, len(b.p.Clouds))
	}
	return sel.slice(b.p.Clouds[i-1])
}

func (b parkinglotBuilt) Link(s string) (*netem.Link, error) {
	i, err := coreIndex(s)
	if err != nil {
		return nil, fmt.Errorf("bad link %q: %w", s, err)
	}
	if i < 1 || i > len(b.p.Forward) {
		return nil, fmt.Errorf("link %q: core index outside 1..%d", s, len(b.p.Forward))
	}
	if strings.HasPrefix(s, "r") {
		return b.p.Reverse[i-1], nil
	}
	return b.p.Forward[i-1], nil
}

func (b parkinglotBuilt) Measured() []NamedLink {
	out := make([]NamedLink, len(b.p.Forward))
	for i, l := range b.p.Forward {
		out[i] = NamedLink{Name: fmt.Sprintf("core%d", i+1), Link: l}
	}
	return out
}

func (b parkinglotBuilt) BufferPkts() int           { return b.p.BufferPkts }
func (b parkinglotBuilt) CapacityPPS() float64      { return b.p.CapacityPPS }
func (b parkinglotBuilt) PartitionHint(n int) []int { return b.p.PartitionHint(n) }
