package netem

import (
	"fmt"
	"strings"

	"pert/internal/sim"
)

// Conservation is the network-wide packet ledger: at any instant between
// events, every packet ever injected (plus wire duplicates) is in exactly one
// of the right-hand columns,
//
//	Injected + Duplicated = Delivered + Dropped + Queued + Transmitting + InFlight.
//
// The columns are maintained inline by the packet path (Send, serve, deliver,
// Receive), so the equation is checkable at zero setup cost; Network.Audit
// verifies it.
type Conservation struct {
	Injected     uint64 // packets entered via SendFrom
	Duplicated   uint64 // extra copies created by wire duplication
	Delivered    uint64 // arrived at their destination node
	Dropped      uint64 // queue drops + blackholed + wire-lost
	Queued       int64  // sitting in some link queue
	Transmitting int64  // occupying some link's transmitter
	InFlight     int64  // propagating on some wire
}

// add accumulates another domain's ledger column into c.
func (c *Conservation) add(o Conservation) {
	c.Injected += o.Injected
	c.Duplicated += o.Duplicated
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Queued += o.Queued
	c.Transmitting += o.Transmitting
	c.InFlight += o.InFlight
}

// Conservation returns a snapshot of the network's packet ledger, summed
// over all shard domains. Only the sum balances: a boundary delivery
// increments the sender domain's InFlight and decrements the receiver's,
// so individual columns of a partitioned network are not meaningful alone.
// On a partitioned network, call only while the shard group is stopped.
func (n *Network) Conservation() Conservation {
	c := n.doms[0].acct
	for _, d := range n.doms[1:] {
		c.add(d.acct)
	}
	return c
}

// Audit checks the simulation's structural invariants and returns the first
// violation found, or nil:
//
//   - packet conservation (the Conservation equation above), plus
//     non-negative queue/transmitter/flight occupancy;
//   - per-link accounting: every packet a link has accepted is queued, in the
//     transmitter, or counted transmitted — Arrivals = Drops + TxPackets +
//     Queue.Len() + busy;
//   - queue sanity: Len and Bytes are non-negative, and Len of an empty-bytes
//     queue is zero.
//
// A non-nil return means the simulator's bookkeeping is corrupt (a model bug,
// not a model result), so callers should abort the run.
func (n *Network) Audit() error {
	c := n.Conservation()
	if c.Queued < 0 || c.Transmitting < 0 || c.InFlight < 0 {
		return fmt.Errorf("negative occupancy: queued=%d transmitting=%d in-flight=%d",
			c.Queued, c.Transmitting, c.InFlight)
	}
	in := c.Injected + c.Duplicated
	out := c.Delivered + c.Dropped + uint64(c.Queued) + uint64(c.Transmitting) + uint64(c.InFlight)
	if in != out {
		return fmt.Errorf("packet conservation violated: injected+duplicated=%d but delivered+dropped+queued+transmitting+in-flight=%d (%+v)",
			in, out, c)
	}
	for _, node := range n.Nodes {
		for _, l := range node.out {
			if err := auditLink(l); err != nil {
				return err
			}
		}
	}
	return nil
}

// auditLink checks one link's local invariants: queue sanity and the
// per-link packet accounting equation. All the state involved is owned by
// the link's domain, so a shard-scoped auditor may run this mid-run.
func auditLink(l *Link) error {
	qlen, qbytes := l.Queue.Len(), l.Queue.Bytes()
	if qlen < 0 || qbytes < 0 || (qbytes == 0) != (qlen == 0) {
		return fmt.Errorf("%v: queue accounting corrupt: Len=%d Bytes=%d", l, qlen, qbytes)
	}
	busy := uint64(0)
	if l.busy {
		busy = 1
	}
	if want := l.Stats.Drops + l.Stats.TxPackets + uint64(qlen) + busy; l.Stats.Arrivals != want {
		return fmt.Errorf("%v: link accounting violated: arrivals=%d but drops+tx+queued+busy=%d",
			l, l.Stats.Arrivals, want)
	}
	return nil
}

// ViolationError is an invariant-auditor failure: the violation itself plus
// the repro bundle needed to replay the run that produced it.
type ViolationError struct {
	Violation string // what check failed
	At        sim.Time
	Seed      int64    // the run's RNG seed
	Scenario  string   // human-readable scenario description
	Trace     []string // trailing packet-trace lines from the audited links
	Metrics   []string // flight-recorder dump (AuditConfig.MetricsDump), if any
}

// Error renders the violation and the full repro bundle.
func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netem: invariant violated at %v: %s\n", e.At, e.Violation)
	fmt.Fprintf(&b, "repro bundle: seed=%d scenario=%q", e.Seed, e.Scenario)
	if len(e.Trace) > 0 {
		fmt.Fprintf(&b, "\ntrailing trace (%d events, oldest first):", len(e.Trace))
		for _, line := range e.Trace {
			b.WriteString("\n  ")
			b.WriteString(line)
		}
	}
	if len(e.Metrics) > 0 {
		b.WriteString("\nflight recorder:")
		for _, line := range e.Metrics {
			b.WriteString("\n  ")
			b.WriteString(line)
		}
	}
	return b.String()
}

// AuditConfig configures an Auditor.
type AuditConfig struct {
	// Seed and Scenario identify the run in the repro bundle.
	Seed     int64
	Scenario string
	// Interval is the periodic audit period; 0 means 100 ms of sim time.
	Interval sim.Duration
	// TraceDepth bounds the trailing-trace ring kept per auditor; 0 means 32
	// events. The ring records events only on links passed to Watch.
	TraceDepth int
	// OnViolation, when set, receives the violation instead of the default
	// panic. The default panic is deliberate: a conservation failure means
	// results can no longer be trusted, and the run harness converts panics
	// into per-run errors with the bundle text.
	OnViolation func(*ViolationError)
	// MetricsDump, when set, is invoked at violation time and its lines are
	// attached to the repro bundle — typically a flight recorder's Dump, so
	// an abort ships with the trailing time-series window alongside the
	// packet trace.
	MetricsDump func() []string
}

// Auditor periodically verifies Network.Audit plus per-link queue bounds and
// sample-time monotonicity, keeping a bounded ring of recent packet events so
// a violation ships with its trailing trace. Attach with StartAudit.
type Auditor struct {
	scopes []*auditScope // one per shard domain, indexed by domain
}

// auditScope is one domain's share of an Auditor: it ticks on the domain's
// engine and holds the ring and bounds of the links the domain owns, so
// concurrently running shards share no auditor state.
type auditScope struct {
	net    *Network
	cfg    AuditConfig
	dom    *domain
	bounds []queueBound
	ring   []auditTraceEvent
	next   int  // ring write cursor
	full   bool // ring has wrapped
	last   sim.Time
	ticker *sim.Ticker
}

type queueBound struct {
	link *Link
	pkts int
}

// auditTraceEvent is one ring entry, compact enough to record per packet
// without allocation; formatted as a Tracer-style line only on violation.
type auditTraceEvent struct {
	op       byte
	t        sim.Time
	from, to NodeID
	flow     int
	seq      int64
	id       uint64
	size     int
	ack      bool
}

// StartAudit attaches an auditor to the network and schedules its periodic
// checks from sim time 0, one ticker per domain — so call it after Partition;
// Watch links and bound queues before traffic starts.
//
// On a one-domain network every tick runs the full Network.Audit. On a
// partitioned one the conservation equation spans state owned by concurrently
// running shards, so each tick checks the links of its own domain and the
// summed ledger is left to a Network.Audit call once the shard group has
// stopped. Domain 0's ticker consumes the same engine-0 sequence number either
// way, which is part of the shards=1 bit-identity contract.
func StartAudit(n *Network, cfg AuditConfig) *Auditor {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * sim.Millisecond
	}
	if cfg.TraceDepth <= 0 {
		cfg.TraceDepth = 32
	}
	a := &Auditor{}
	for _, d := range n.doms {
		s := &auditScope{net: n, cfg: cfg, dom: d, ring: make([]auditTraceEvent, cfg.TraceDepth)}
		s.ticker = d.eng.Every(0, cfg.Interval, s.check)
		a.scopes = append(a.scopes, s)
	}
	return a
}

// Watch records the link's packet events (enqueue/dequeue/drop) in the
// trailing-trace ring of the domain that owns the link, chaining with hooks
// already installed.
func (aud *Auditor) Watch(l *Link) {
	a := aud.scopes[l.dom.idx]
	record := func(op byte) func(p *Packet, now sim.Time) {
		return func(p *Packet, now sim.Time) {
			e := auditTraceEvent{op: op, t: now, from: l.From.ID, to: l.To.ID,
				flow: p.Flow, seq: p.Seq, id: p.ID, size: p.Size, ack: p.IsAck}
			if p.IsAck {
				e.seq = p.AckNo
			}
			a.ring[a.next] = e
			a.next++
			if a.next == len(a.ring) {
				a.next, a.full = 0, true
			}
		}
	}
	prevEnq, prevDep, prevDrop := l.OnEnqueue, l.OnDepart, l.OnDrop
	enq, dep, drop := record('+'), record('-'), record('d')
	l.OnEnqueue = func(p *Packet, now sim.Time) {
		if prevEnq != nil {
			prevEnq(p, now)
		}
		enq(p, now)
	}
	l.OnDepart = func(p *Packet, now sim.Time) {
		if prevDep != nil {
			prevDep(p, now)
		}
		dep(p, now)
	}
	l.OnDrop = func(p *Packet, now sim.Time) {
		if prevDrop != nil {
			prevDrop(p, now)
		}
		drop(p, now)
	}
}

// BoundQueue asserts that the link's queue never holds more than pkts packets
// at audit time — the queue-bound invariant for disciplines with a known
// limit — checked on the ticks of the domain owning the link.
func (a *Auditor) BoundQueue(l *Link, pkts int) {
	s := a.scopes[l.dom.idx]
	s.bounds = append(s.bounds, queueBound{l, pkts})
}

// Stop cancels the periodic checks.
func (a *Auditor) Stop() {
	for _, s := range a.scopes {
		s.ticker.Stop()
	}
}

// Check runs one audit pass over every domain immediately; call it only
// while no shard is running.
func (a *Auditor) Check() {
	for _, s := range a.scopes {
		s.check(s.dom.eng.Now())
	}
}

func (a *auditScope) check(now sim.Time) {
	if now < a.last {
		a.fail(now, fmt.Sprintf("event time moved backwards: %v after %v", now, a.last))
		return
	}
	a.last = now
	if err := a.audit(); err != nil {
		a.fail(now, err.Error())
		return
	}
	for _, b := range a.bounds {
		if n := b.link.Queue.Len(); n > b.pkts {
			a.fail(now, fmt.Sprintf("%v: queue bound exceeded: %d > %d packets", b.link, n, b.pkts))
			return
		}
	}
}

// audit is one tick's structural check (see StartAudit).
func (a *auditScope) audit() error {
	if len(a.net.doms) == 1 {
		return a.net.Audit()
	}
	for _, node := range a.net.Nodes {
		if node.dom != a.dom {
			continue
		}
		for _, l := range node.out {
			if err := auditLink(l); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *auditScope) fail(now sim.Time, violation string) {
	err := &ViolationError{
		Violation: violation,
		At:        now,
		Seed:      a.cfg.Seed,
		Scenario:  a.cfg.Scenario,
		Trace:     a.trace(),
	}
	if a.cfg.MetricsDump != nil {
		err.Metrics = a.cfg.MetricsDump()
	}
	if a.cfg.OnViolation != nil {
		a.cfg.OnViolation(err)
		return
	}
	panic(err.Error())
}

// trace renders the ring as Tracer-format lines, oldest first.
func (a *auditScope) trace() []string {
	var events []auditTraceEvent
	if a.full {
		events = append(events, a.ring[a.next:]...)
	}
	events = append(events, a.ring[:a.next]...)
	out := make([]string, 0, len(events))
	for _, e := range events {
		kind := "tcp"
		if e.ack {
			kind = "ack"
		}
		out = append(out, fmt.Sprintf("%c %.6f %d %d %s %d %d %d %d -",
			e.op, e.t.Seconds(), e.from, e.to, kind, e.size, e.flow, e.seq, e.id))
	}
	return out
}
