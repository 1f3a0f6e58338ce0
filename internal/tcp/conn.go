package tcp

import (
	"math"

	"pert/internal/netem"
	"pert/internal/sim"
)

const (
	// payloadSize is the data payload per segment in bytes; with the 40-byte
	// header this gives the 1040-byte wire segments used throughout the
	// experiments.
	payloadSize = 1000
	headerSize  = 40
	ackSize     = headerSize
)

// LossKind distinguishes how the sender inferred a loss, for flow-level loss
// instrumentation (the Section 2 study records these).
type LossKind int

const (
	// LossFastRetransmit is loss inferred from duplicate ACKs / SACK.
	LossFastRetransmit LossKind = iota
	// LossTimeout is loss inferred from a retransmission timeout.
	LossTimeout
)

// Config parameterizes a connection. Zero values select sensible defaults.
type Config struct {
	InitialCwnd float64 // default 2 segments
	MaxCwnd     float64 // receiver-window stand-in; default effectively unbounded
	ECN         bool    // negotiate ECN: set ECT, respond to ECE
	// MaxBurst caps the segments transmitted in response to one ACK
	// (ns-2's maxburst), preventing stretch ACKs — e.g. after ACK loss on
	// a congested reverse path — from blasting line-rate bursts into the
	// bottleneck. Default 4.
	MaxBurst int

	// TotalSegs ends the transfer after this many segments are acked;
	// 0 means unbounded (an FTP source).
	TotalSegs int64
	// OnComplete fires once when TotalSegs are all acknowledged.
	OnComplete func(now sim.Time)

	// OnRTTSample observes every valid RTT measurement (per-ACK), feeding
	// the Section 2 predictor traces. ack is the ACK packet that carried
	// the sample (including any echoed instrumentation); treat as
	// read-only.
	OnRTTSample func(now sim.Time, rtt sim.Duration, ack *netem.Packet)
	// OnLoss observes every flow-level loss inference.
	OnLoss func(now sim.Time, kind LossKind)
}

// ConnStats are cumulative sender-side counters.
type ConnStats struct {
	SegsSent       uint64
	Retransmits    uint64
	FastRecoveries uint64
	RTOs           uint64
	ECNResponses   uint64
	AckedSegs      uint64
	EarlyResponses uint64 // PERT proactive window reductions
}

// Conn is a TCP sender. It transmits a segment stream to a Sink at the
// destination node and reacts to the returned ACK/SACK stream. Create
// connected pairs with NewFlow.
type Conn struct {
	eng  *sim.Engine
	net  *netem.Network
	node *netem.Node
	flow int
	dst  netem.NodeID
	cc   CongestionControl
	cfg  Config

	rtt RTTEstimator

	cwnd     float64
	ssthresh float64

	sndUna int64 // lowest unacknowledged segment
	sndNxt int64 // next segment to transmit (pulled back on RTO)
	sndMax int64 // highest segment ever transmitted + 1

	dupacks    int
	inRecovery bool
	recover    int64

	// Retransmission bookkeeping for the current recovery episode. Holes
	// are retransmitted in ascending order, so a sorted list plus two
	// monotone cursors replaces a per-segment set and keeps every
	// per-ACK operation O(1) amortized even with thousands of losses.
	rtxList  []int64 // seqs retransmitted this episode, ascending
	rtxAcked int     // prefix of rtxList below sndUna (no longer in flight)
	rtxScan  int64   // next position for the hole scan

	sb Scoreboard

	// rtxTimer is a persistent timer rearmed on every ACK; the old
	// cancel-and-reallocate pattern cost one event allocation per ACK.
	rtxTimer *sim.Timer

	ecnRecover int64 // ignore ECE until sndUna passes this
	cwrPending bool

	started   bool
	completed bool

	Stats ConnStats
}

// NewConn creates a sender on node addressed to dst under the given flow ID.
// The caller must also create a Sink for the flow at the destination (or use
// NewFlow, which does both).
func NewConn(net *netem.Network, node *netem.Node, dst netem.NodeID, flow int, cc CongestionControl, cfg Config) *Conn {
	c := &Conn{}
	// The node's engine, not the network's: after a Partition the two
	// differ, and every timer and transmission of this connection must run
	// on the shard owning its node.
	c.rtxTimer = node.Engine().NewTimer(c.onRTO)
	c.reset(net, node, dst, flow, cc, cfg)
	return c
}

// reset rebuilds every field of the connection from its arguments, as for a
// new one. Only the persistent timer and the capacity of the scoreboard and
// retransmission list survive; the caller guarantees the timer is stopped.
func (c *Conn) reset(net *netem.Network, node *netem.Node, dst netem.NodeID, flow int, cc CongestionControl, cfg Config) {
	if cfg.InitialCwnd == 0 {
		cfg.InitialCwnd = 2
	}
	if cfg.MaxCwnd == 0 {
		cfg.MaxCwnd = math.MaxInt32
	}
	if cfg.MaxBurst == 0 {
		cfg.MaxBurst = 4
	}
	*c = Conn{
		eng:      node.Engine(),
		net:      net,
		node:     node,
		flow:     flow,
		dst:      dst,
		cc:       cc,
		cfg:      cfg,
		rtt:      *NewRTTEstimator(),
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.MaxCwnd,
		rtxList:  c.rtxList[:0],
		sb:       Scoreboard{blocks: c.sb.blocks[:0]},
		rtxTimer: c.rtxTimer,
	}
}

// Flow is a connected sender/receiver pair.
type Flow struct {
	Conn *Conn
	Sink *Sink
}

// NewFlow wires a sender at src to a sink at dst and returns both. Call
// Start on the returned flow (or Conn.Start) to begin transmitting.
func NewFlow(net *netem.Network, src, dst *netem.Node, flow int, cc CongestionControl, cfg Config) *Flow {
	return &Flow{Conn: NewConn(net, src, dst.ID, flow, cc, cfg), Sink: NewSink(net, dst, flow, src.ID)}
}

// Reuse turns a finished flow into a new one under a fresh flow ID, between
// the same two nodes: both endpoints go through the same reset NewConn and
// NewSink use, so the result is indistinguishable from NewFlow's, minus the
// allocations. A nil Sink (a sender whose receiver another node's
// SinkAcceptor owns) stays nil. The contract: both endpoints are closed, the
// ID is new, and nothing retains the old *Conn or *Sink, whose identity the
// new flow takes over. Reuse panics if the Conn has neither completed nor
// been closed, and closes the Sink itself (a no-op if the caller did).
func (f *Flow) Reuse(flow int, cc CongestionControl, cfg Config) {
	c := f.Conn
	if !c.completed {
		panic("tcp: Reuse of a live flow")
	}
	c.reset(c.net, c.node, c.dst, flow, cc, cfg)
	if s := f.Sink; s != nil {
		s.Close()
		s.reset(s.net, s.node, flow, s.peer)
	}
}

// Start attaches the sender and begins transmitting at time at.
func (f *Flow) Start(at sim.Time) { f.Conn.Start(at) }

// Close detaches both endpoints.
func (f *Flow) Close() {
	f.Conn.Close()
	f.Sink.Close()
}

// Start schedules the connection to begin transmitting at time at.
func (c *Conn) Start(at sim.Time) { c.eng.Post(at, startConn, c) }

// startConn is Start's event: a static function, so starting a connection
// allocates no closure.
func startConn(a any) {
	c := a.(*Conn)
	if c.started {
		return
	}
	c.started = true
	c.node.AttachFlow(c.flow, c)
	c.cc.Init(c)
	c.trySend()
}

// Close detaches the sender and cancels its timer.
func (c *Conn) Close() {
	c.completed = true
	c.rtxTimer.Stop()
	c.node.DetachFlow(c.flow)
}

// Accessors used by CongestionControl implementations and instrumentation.

// Cwnd returns the congestion window in segments.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// SetCwnd sets the congestion window, clamped to [1, MaxCwnd].
func (c *Conn) SetCwnd(w float64) {
	c.cwnd = math.Max(1, math.Min(w, c.cfg.MaxCwnd))
}

// Ssthresh returns the slow-start threshold in segments.
func (c *Conn) Ssthresh() float64 { return c.ssthresh }

// SetSsthresh sets the slow-start threshold (floor 2 segments).
func (c *Conn) SetSsthresh(s float64) { c.ssthresh = math.Max(2, s) }

// RTT exposes the connection's RTT estimator.
func (c *Conn) RTT() *RTTEstimator { return &c.rtt }

// InRecovery reports whether the sender is in SACK-based loss recovery.
func (c *Conn) InRecovery() bool { return c.inRecovery }

// Now returns current virtual time.
func (c *Conn) Now() sim.Time { return c.eng.Now() }

// Engine returns the simulation engine (for RNG access in stochastic CC).
func (c *Conn) Engine() *sim.Engine { return c.eng }

// SndUna returns the lowest unacknowledged segment number.
func (c *Conn) SndUna() int64 { return c.sndUna }

// SndMax returns one past the highest segment ever sent.
func (c *Conn) SndMax() int64 { return c.sndMax }

// Completed reports whether a bounded transfer has finished.
func (c *Conn) Completed() bool { return c.completed }

// noteEarlyResponse records a PERT proactive reduction (see pertcc.go).
func (c *Conn) noteEarlyResponse() { c.Stats.EarlyResponses++ }

// dataLimit returns one past the last segment the application will send.
func (c *Conn) dataLimit() int64 {
	if c.cfg.TotalSegs <= 0 {
		return math.MaxInt64
	}
	return c.cfg.TotalSegs
}

// effCwnd returns the integer window used for transmission decisions.
func (c *Conn) effCwnd() int64 {
	w := math.Floor(c.cwnd)
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// sendSeg transmits one segment.
func (c *Conn) sendSeg(seq int64) {
	retrans := seq < c.sndMax
	p := c.node.NewPacket()
	p.Flow = c.flow
	p.Src = c.node.ID
	p.Dst = c.dst
	p.Size = payloadSize + headerSize
	p.Seq = seq
	p.ECT = c.cfg.ECN
	p.CWR = c.cwrPending
	p.SentAt = c.eng.Now()
	p.Retrans = retrans
	p.QueueSample = -1 // unset until an instrumented queue stamps it
	c.cwrPending = false
	c.Stats.SegsSent++
	if retrans {
		c.Stats.Retransmits++
	}
	if seq >= c.sndMax {
		c.sndMax = seq + 1
	}
	c.net.SendFrom(c.node, p)
	c.armTimerIfNeeded()
}

// trySend transmits as much as the window currently allows, bounded by the
// per-ACK burst cap.
func (c *Conn) trySend() {
	if c.completed || !c.started {
		return
	}
	burst := 0
	if c.inRecovery {
		for burst < c.cfg.MaxBurst && c.sendRecoveryStep() {
			burst++
		}
		return
	}
	limit := c.dataLimit()
	for burst < c.cfg.MaxBurst && c.sndNxt-c.sndUna < c.effCwnd() && c.sndNxt < limit {
		seq := c.sndNxt
		c.sndNxt++
		c.sendSeg(seq)
		burst++
	}
}

// pipe estimates the number of segments currently in flight during recovery,
// per RFC 6675: segments above the highest SACK (sent, unsacked, presumed in
// flight) plus retransmissions not yet cumulatively acknowledged. Holes below
// the highest SACK that were never retransmitted are presumed lost. O(1).
func (c *Conn) pipe() int64 {
	base := c.sb.HighestSacked()
	if base < c.sndUna {
		base = c.sndUna
	}
	p := (c.sndNxt - base) + int64(len(c.rtxList)-c.rtxAcked)
	if p < 0 {
		p = 0
	}
	return p
}

// sendRecoveryStep sends one segment during loss recovery if the pipe allows:
// first unretransmitted holes below the highest SACK, then new data. Returns
// whether a segment was sent. The hole scan is monotone within an episode:
// positions behind rtxScan are sacked, retransmitted, or acknowledged.
func (c *Conn) sendRecoveryStep() bool {
	if c.pipe() >= c.effCwnd() {
		return false
	}
	if c.rtxScan < c.sndUna {
		c.rtxScan = c.sndUna
	}
	limit := c.sb.HighestSacked()
	if limit > c.recover {
		limit = c.recover
	}
	if hole := c.sb.NextHole(c.rtxScan, limit); hole >= 0 {
		c.rtxScan = hole + 1
		c.rtxList = append(c.rtxList, hole)
		c.sendSeg(hole)
		return true
	}
	// Otherwise send new data if the application has any.
	if c.sndNxt < c.dataLimit() {
		seq := c.sndNxt
		c.sndNxt++
		c.sendSeg(seq)
		return true
	}
	return false
}

// enterRecovery begins SACK-based fast recovery with a retransmission of the
// first unacknowledged segment.
func (c *Conn) enterRecovery(now sim.Time) {
	c.inRecovery = true
	c.recover = c.sndMax
	c.rtxList = c.rtxList[:0]
	c.rtxAcked = 0
	c.rtxScan = c.sndUna + 1
	c.dupacks = 0
	c.Stats.FastRecoveries++
	c.cc.OnDupAckLoss(c)
	if c.cfg.OnLoss != nil {
		c.cfg.OnLoss(now, LossFastRetransmit)
	}
	c.rtxList = append(c.rtxList, c.sndUna)
	c.sendSeg(c.sndUna)
}

// exitRecovery completes fast recovery after the recovery point is acked.
func (c *Conn) exitRecovery() {
	c.inRecovery = false
	c.rtxList = c.rtxList[:0]
	c.rtxAcked = 0
	c.SetCwnd(c.ssthresh)
}

// Receive implements netem.Handler for the ACK stream.
func (c *Conn) Receive(p *netem.Packet, now sim.Time) {
	if !p.IsAck || c.completed {
		return
	}
	for _, b := range p.Sack {
		c.sb.Add(b)
	}

	// RTT sampling: every ACK echoing an unambiguous (non-retransmitted)
	// segment timestamp yields a sample — the per-ACK sampling Section 2.4
	// of the paper builds its predictor on.
	var sample sim.Duration
	if p.Echo > 0 && !p.Retrans {
		sample = now - p.Echo
		c.rtt.Sample(sample)
		if c.cfg.OnRTTSample != nil {
			c.cfg.OnRTTSample(now, sample, p)
		}
	}

	// ECN echo: respond at most once per window.
	if p.ECE && c.cfg.ECN && c.sndUna >= c.ecnRecover {
		c.Stats.ECNResponses++
		c.ecnRecover = c.sndMax
		c.cwrPending = true
		c.cc.OnECNEcho(c)
	}

	newly := 0
	switch {
	case p.AckNo > c.sndUna:
		newly = int(p.AckNo - c.sndUna)
		c.Stats.AckedSegs += uint64(newly)
		c.sndUna = p.AckNo
		if c.sndNxt < c.sndUna {
			c.sndNxt = c.sndUna
		}
		c.sb.AckedUpTo(c.sndUna)
		for c.rtxAcked < len(c.rtxList) && c.rtxList[c.rtxAcked] < c.sndUna {
			c.rtxAcked++
		}
		c.dupacks = 0
		if c.inRecovery && c.sndUna >= c.recover {
			c.exitRecovery()
		}
		c.resetTimer()
	case p.AckNo == c.sndUna && c.sndMax > c.sndUna:
		c.dupacks++
		if !c.inRecovery && (c.dupacks >= 3 || c.sb.SackedCount() >= 3) {
			c.enterRecovery(now)
		}
	}

	c.cc.OnAck(c, newly, sample, p)

	if c.cfg.TotalSegs > 0 && c.sndUna >= c.cfg.TotalSegs {
		c.complete(now)
		return
	}
	c.trySend()
}

// complete finishes a bounded transfer.
func (c *Conn) complete(now sim.Time) {
	c.Close()
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(now)
	}
}

// Retransmission timer management.

func (c *Conn) armTimerIfNeeded() {
	if !c.rtxTimer.Scheduled() {
		c.rtxTimer.ResetAfter(c.rtt.RTO())
	}
}

func (c *Conn) resetTimer() {
	if c.sndMax > c.sndUna {
		c.rtxTimer.ResetAfter(c.rtt.RTO())
	} else {
		c.rtxTimer.Stop()
	}
}

// onRTO handles a retransmission timeout: collapse the window, discard SACK
// state (conservatively, as ns-2 does), and go back to the cumulative ACK
// point.
func (c *Conn) onRTO() {
	if c.completed || c.sndMax <= c.sndUna {
		return
	}
	c.Stats.RTOs++
	c.rtt.Backoff()
	c.cc.OnRTO(c)
	c.sb.Reset()
	c.inRecovery = false
	c.rtxList = c.rtxList[:0]
	c.rtxAcked = 0
	c.dupacks = 0
	c.sndNxt = c.sndUna
	if c.cfg.OnLoss != nil {
		c.cfg.OnLoss(c.eng.Now(), LossTimeout)
	}
	c.rtxTimer.ResetAfter(c.rtt.RTO())
	c.trySend()
}
