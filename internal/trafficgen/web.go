package trafficgen

import (
	"pert/internal/netem"
	"pert/internal/sim"
	"pert/internal/tcp"
)

// WebConfig parameterizes a web session per the guidelines of Feldmann et
// al. [11]: pages arrive after exponential think times, each page carries a
// geometric number of objects, and object sizes are heavy-tailed (Pareto).
// Objects within a page are fetched one at a time, each over a fresh TCP
// connection.
type WebConfig struct {
	MeanThink      sim.Duration // default 1 s
	ObjectsPerPage float64      // geometric mean; default 2
	ParetoShape    float64      // default 1.2
	MeanObjectSegs float64      // mean object size in segments; default 12

	// CC builds the session's controller, once, at its first fetch; every
	// later transfer reuses it, re-Inited (see CongestionControl.Init).
	// Default Reno (web background traffic is standard TCP in all the
	// paper's experiments).
	CC func() tcp.CongestionControl
	// Conn is the base connection configuration for transfers.
	Conn tcp.Config

	// OnObject, when set, observes every completed object transfer with
	// its size and flow completion time — the user-facing web-latency
	// metric (see the ext-fct experiment).
	OnObject func(segs int64, fct sim.Duration)
}

func (c *WebConfig) applyDefaults() {
	if c.MeanThink == 0 {
		c.MeanThink = sim.Second
	}
	if c.ObjectsPerPage == 0 {
		c.ObjectsPerPage = 2
	}
	if c.ParetoShape == 0 {
		c.ParetoShape = 1.2
	}
	if c.MeanObjectSegs == 0 {
		c.MeanObjectSegs = 12
	}
	if c.CC == nil {
		c.CC = func() tcp.CongestionControl { return tcp.Reno{} }
	}
}

// WebSession alternates think times and page fetches between a client and a
// server node for the lifetime of the simulation.
type WebSession struct {
	net  *netem.Network
	eng  *sim.Engine
	ids  *IDs
	src  *netem.Node
	dst  *netem.Node
	cfg  WebConfig
	stop bool

	// crossDomain marks a session whose server lives in another shard
	// domain: transfers build only the sender side and let the server's
	// SinkAcceptor create the receiver lazily on its own shard.
	crossDomain bool

	// Stats.
	Pages         uint64
	Objects       uint64
	SegsRequested uint64

	remaining int // objects left on the current page

	// t is the session's one transfer. Each object's fetch reuses the flow
	// and controller of the one before, so a session allocates one flow and
	// one controller, not one per object. done is w.complete, bound once at
	// construction, and serves as every fetch's OnComplete.
	t    transfer
	cc   tcp.CongestionControl
	done func(sim.Time)
}

// transfer is the object fetch in flight and the flow it runs over.
type transfer struct {
	f       tcp.Flow
	segs    int64
	started sim.Time
}

// StartWebSession begins a session at time at. The session's timers and
// random draws run on the client node's owning engine, so on a partitioned
// network each session's randomness is shard-local (for an unpartitioned
// network src.Engine() is the network engine, as before). When client and
// server live in different domains the session switches to cross-domain
// mode at construction: it carves a private flow-ID namespace (the shared
// allocator cannot be touched mid-run from several shards) and installs a
// SinkAcceptor on the server so receive-side state is created lazily on the
// server's own shard.
func StartWebSession(net *netem.Network, ids *IDs, src, dst *netem.Node, cfg WebConfig, at sim.Time) *WebSession {
	cfg.applyDefaults()
	w := &WebSession{net: net, eng: src.Engine(), ids: ids, src: src, dst: dst, cfg: cfg}
	w.done = w.complete
	if src.Domain() != dst.Domain() {
		w.ids = ids.Namespace()
		w.crossDomain = true
		tcp.AcceptSinks(net, dst)
	}
	w.eng.Post(at, startThink, w)
	return w
}

// Stop ends the session after the in-flight object completes.
func (w *WebSession) Stop() { w.stop = true }

// startThink begins a session: a static function, so starting one allocates
// no event closure.
func startThink(a any) { a.(*WebSession).think() }

func (w *WebSession) think() {
	if w.stop {
		return
	}
	w.eng.PostAfter(Exponential(w.eng.Rand(), w.cfg.MeanThink), startPage, w)
}

// startPage ends a think time: a static function, so a page allocates no
// closure.
func startPage(a any) {
	w := a.(*WebSession)
	if w.stop {
		return
	}
	w.Pages++
	w.remaining = Geometric(w.eng.Rand(), w.cfg.ObjectsPerPage)
	w.pump()
}

// pump fetches the page's next object, or returns to thinking when the page
// is complete.
func (w *WebSession) pump() {
	if w.stop {
		return
	}
	if w.remaining == 0 {
		w.think()
		return
	}
	w.remaining--
	w.fetchOne()
}

// fetchOne transfers a single object over a fresh connection: a new flow
// ID, on the endpoints and controller of the session's previous object when
// it has fetched one.
func (w *WebSession) fetchOne() {
	segs := int64(Pareto(w.eng.Rand(), w.cfg.ParetoShape, w.cfg.MeanObjectSegs))
	if segs < 1 {
		segs = 1
	}
	w.Objects++
	w.SegsRequested += uint64(segs)
	t := &w.t
	t.segs, t.started = segs, w.eng.Now()
	conn := w.cfg.Conn
	conn.TotalSegs = segs
	conn.OnComplete = w.done
	flow := w.ids.Next()
	if w.cc == nil {
		w.cc = w.cfg.CC()
	}
	switch {
	case t.f.Conn != nil:
		t.f.Reuse(flow, w.cc, conn)
	case w.crossDomain:
		// Sender side only: attaching a Sink to the remote node here would
		// race its shard. The server's SinkAcceptor builds the receiver
		// when the first data segment arrives, and owns it thereafter.
		t.f.Conn = tcp.NewConn(w.net, w.src, w.dst.ID, flow, w.cc, conn)
	default:
		t.f = *tcp.NewFlow(w.net, w.src, w.dst, flow, w.cc, conn)
	}
	t.f.Start(w.eng.Now())
}

// complete ends a transfer: it closes the receiver at once (a late segment
// must find no handler, as for a discarded flow) and moves the page along.
func (w *WebSession) complete(now sim.Time) {
	if s := w.t.f.Sink; s != nil {
		s.Close()
	}
	if w.cfg.OnObject != nil {
		w.cfg.OnObject(w.t.segs, now-w.t.started)
	}
	w.pump()
}

// WebFleet starts n sessions between alternating (src, dst) pairs, each with
// a start time uniform in [0, startWindow).
func WebFleet(net *netem.Network, ids *IDs, srcs, dsts []*netem.Node, n int, cfg WebConfig, startWindow sim.Duration) []*WebSession {
	rng := net.Engine().Rand()
	out := make([]*WebSession, 0, n)
	for i := 0; i < n; i++ {
		s := StartWebSession(net, ids, srcs[i%len(srcs)], dsts[i%len(dsts)], cfg, Uniform(rng, startWindow))
		out = append(out, s)
	}
	return out
}
