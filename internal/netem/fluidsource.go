package netem

import (
	"fmt"

	"pert/internal/fluid"
	"pert/internal/sim"
)

// FluidSource couples a PERT/RED fluid aggregate (internal/fluid) to one
// link: the modeled flows' arrival rate and queue occupancy inflate the
// link's shared queue, so real packets crossing the link experience the
// fluid-driven delay and loss, while the measured packet arrival rate feeds
// back into the DDE's queue equation (fluid.HybridSystem). One FluidSource
// models Flows background connections at the cost of a three-state ODE step
// per tick — the substrate that takes a bottleneck from thousands of
// simulated connections to millions of modeled ones.
//
// The co-simulation runs on a sim.Ticker: each Interval the source measures
// the packet arrival rate over the elapsed tick, advances the fluid Stepper
// to the current sim time, and refreshes the cached coupling outputs (modeled
// backlog, added queueing delay, response probability) that the packet path
// reads. Fluid state is therefore piecewise-constant between ticks, which is
// exact to O(Interval) — keep Interval well below the modeled RTT.
//
// FluidSources are serial-only: Network.Partition rejects a partitioned
// network containing one (the ticker and the shared-queue reads are bound to
// the build engine).
type FluidSource struct {
	link *Link
	cfg  FluidConfig
	par  fluid.PERTParams
	st   *fluid.Stepper
	tick *sim.Ticker

	lastArrivals uint64   // Stats.Arrivals at the previous tick
	lastTick     sim.Time // previous tick time
	pktRate      float64  // measured packet arrivals/s over the last tick

	// Cached coupling outputs, refreshed every tick.
	backlog float64      // modeled fluid packets in the shared queue
	extra   sim.Duration // queueing delay real packets inherit from them
	prob    float64      // response probability L·(Tq̂−Tmin), clamped [0,1]
}

// FluidConfig parameterizes the modeled aggregate attached to a link.
type FluidConfig struct {
	// Flows is the number of modeled background connections (N in the
	// fluid model). Counts up to 10^6 cost the same as 10.
	Flows float64
	// RTT is the modeled flows' common round-trip time, seconds.
	RTT float64
	// PktSize converts the link's bit rate to packets/second (C in the
	// model). Defaults to 1040 bytes (1000B payload + headers), matching
	// the packet experiments.
	PktSize int
	// Tmin, Tmax, Pmax shape the PERT response curve. Defaults: 5 ms,
	// 105 ms, 0.1.
	Tmin, Tmax, Pmax float64
	// Alpha and Delta are the EWMA weight and sampling interval of the
	// modeled end hosts. Alpha defaults to 0.99; Delta defaults to
	// (1-Alpha)·RTT/6, pinning the EWMA smoothing time constant
	// Delta/(1-Alpha) to RTT/6. A fixed default would put seconds of
	// smoothing lag on top of a tens-of-milliseconds feedback delay, and
	// the extra phase drives certified-stable equilibria into sustained
	// drain-and-refill limit cycles around the Tq=0 clamp.
	Alpha, Delta float64
	// Step is the DDE integration step, seconds. Default 1 ms.
	Step float64
	// Interval is the co-simulation tick. Default 10 ms.
	Interval sim.Duration
	// BufferPkts bounds the shared queue: a real packet arriving when
	// modeled backlog + packet queue length reaches it is dropped exactly
	// like a queue reject. 0 disables shared-overflow loss.
	BufferPkts int
}

func (c *FluidConfig) applyDefaults() {
	if c.PktSize == 0 {
		c.PktSize = 1040
	}
	if c.Tmin == 0 {
		c.Tmin = 0.005
	}
	if c.Tmax == 0 {
		c.Tmax = 0.105
	}
	if c.Pmax == 0 {
		c.Pmax = 0.1
	}
	if c.Alpha == 0 {
		c.Alpha = 0.99
	}
	if c.Delta == 0 {
		c.Delta = (1 - c.Alpha) * c.RTT / 6
	}
	if c.Step == 0 {
		c.Step = 1e-3
	}
	if c.Interval == 0 {
		c.Interval = 10 * sim.Millisecond
	}
}

// AttachFluid attaches a modeled background aggregate to the link and starts
// its co-simulation ticker. The fluid model sees the link's capacity at
// attach time (SetCapacity changes do not propagate into the DDE), starts
// from the cold state (W=1, empty queue), and runs for the rest of the
// simulation. One fluid source per link.
func AttachFluid(l *Link, cfg FluidConfig) (*FluidSource, error) {
	if l.fluid != nil {
		return nil, fmt.Errorf("netem: %v already has a fluid source", l)
	}
	if l.eng == nil {
		return nil, fmt.Errorf("netem: link is not attached to an engine")
	}
	cfg.applyDefaults()
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("netem: fluid source needs a positive flow count, got %v", cfg.Flows)
	}
	if cfg.RTT <= cfg.Step {
		return nil, fmt.Errorf("netem: fluid RTT %vs must exceed the integration step %vs", cfg.RTT, cfg.Step)
	}
	fs := &FluidSource{link: l, cfg: cfg}
	fs.par = fluid.PERTParams{
		C:     l.Capacity / (8 * float64(cfg.PktSize)),
		N:     cfg.Flows,
		R:     cfg.RTT,
		Tmin:  cfg.Tmin,
		Tmax:  cfg.Tmax,
		Pmax:  cfg.Pmax,
		Alpha: cfg.Alpha,
		Delta: cfg.Delta,
	}
	sys := fs.par.HybridSystem(fluid.HybridInputs{PacketRate: func() float64 { return fs.pktRate }})
	now := l.eng.Now()
	fs.st = fluid.NewStepper(sys, []float64{1, 0, 0}, now.Seconds(), cfg.Step)
	fs.lastTick = now
	fs.lastArrivals = l.Stats.Arrivals
	fs.tick = l.eng.Every(now, cfg.Interval, fs.onTick)
	l.fluid = fs
	return fs, nil
}

// onTick is the co-simulation step: measure the packet arrival rate since the
// last tick, advance the DDE to now, and refresh the coupling outputs.
func (fs *FluidSource) onTick(now sim.Time) {
	if dt := (now - fs.lastTick).Seconds(); dt > 0 {
		fs.pktRate = float64(fs.link.Stats.Arrivals-fs.lastArrivals) / dt
	}
	fs.lastTick = now
	fs.lastArrivals = fs.link.Stats.Arrivals
	fs.st.AdvanceTo(now.Seconds())

	x := fs.st.State()
	// The DDE's Tq models the shared queue's total delay; the modeled
	// backlog is whatever part of it the real packet queue doesn't already
	// account for.
	fs.backlog = x[1]*fs.par.C - float64(fs.link.Queue.Len())
	if fs.backlog < 0 {
		fs.backlog = 0
	}
	fs.extra = sim.Seconds(fs.backlog / fs.par.C)
	fs.prob = fs.par.Prob(x[2])
}

// admit reports whether the shared queue has room for a real packet: it
// rejects one once the combined modeled + packet backlog has filled the
// buffer.
func (fs *FluidSource) admit() bool {
	return fs.cfg.BufferPkts <= 0 || fs.backlog+float64(fs.link.Queue.Len()) < float64(fs.cfg.BufferPkts)
}

// Backlog returns the modeled fluid packets currently in the shared queue.
func (fs *FluidSource) Backlog() float64 { return fs.backlog }

// Prob returns the aggregate's current response probability.
func (fs *FluidSource) Prob() float64 { return fs.prob }

// Rate returns the modeled aggregate's current arrival rate in packets per
// second, N·W/R evaluated at the present fluid state.
func (fs *FluidSource) Rate() float64 {
	return fs.par.N * fs.st.State()[0] / fs.par.R
}

// PacketRate returns the measured real-packet arrival rate fed back into the
// DDE over the last completed tick.
func (fs *FluidSource) PacketRate() float64 { return fs.pktRate }

// Params returns the fluid model parameters derived from the config and the
// link (notably C in packets/second).
func (fs *FluidSource) Params() fluid.PERTParams { return fs.par }

// Flows returns the modeled background flow count.
func (fs *FluidSource) Flows() float64 { return fs.cfg.Flows }

// State returns the current fluid state (W, Tq, smoothed Tq). The slice is
// live working storage; copy to retain.
func (fs *FluidSource) State() []float64 { return fs.st.State() }

// Stop halts the co-simulation ticker; the cached coupling outputs freeze at
// their last values.
func (fs *FluidSource) Stop() { fs.tick.Stop() }

// Fluid returns the link's attached fluid source, nil without one.
func (l *Link) Fluid() *FluidSource { return l.fluid }

// QueuePkts returns the link's shared queue length in packets: the real
// queue plus the modeled fluid backlog. Without a fluid source it is exactly
// float64(Queue.Len()).
func (l *Link) QueuePkts() float64 {
	n := float64(l.Queue.Len())
	if l.fluid != nil {
		n += l.fluid.backlog
	}
	return n
}
