// Command pertfluid integrates the PERT/RED fluid model (Section 5) and
// evaluates the Theorem 1 stability condition. It can emit trajectories as
// CSV for plotting (Figure 13b-d) or sweep the minimum sampling interval
// (Figure 13a).
//
// Examples:
//
//	pertfluid -mode trajectory -r 160ms -dur 200s > traj.csv
//	pertfluid -mode stability -r 171ms
//	pertfluid -mode mindelta
//	pertfluid -mode hybrid -c 1e7 -n 1e5 -r 60ms -aprate 120000 > hybrid.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pert/internal/fluid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pertfluid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "trajectory", "trajectory | stability | mindelta | hybrid")
	c := fs.Float64("c", 100, "link capacity, packets/second")
	n := fs.Float64("n", 5, "number of flows")
	r := fs.Duration("r", 100*time.Millisecond, "round-trip time")
	tmin := fs.Duration("tmin", 50*time.Millisecond, "lower delay threshold")
	tmax := fs.Duration("tmax", 100*time.Millisecond, "upper delay threshold")
	pmax := fs.Float64("pmax", 0.1, "response probability at tmax")
	alpha := fs.Float64("alpha", 0.99, "EWMA history weight")
	delta := fs.Duration("delta", 100*time.Microsecond, "sampling interval")
	dur := fs.Duration("dur", 200*time.Second, "integration horizon")
	step := fs.Duration("step", time.Millisecond, "integration step")
	every := fs.Int("every", 100, "emit every k-th step in trajectory mode")
	apRate := fs.Float64("aprate", 0, "hybrid mode: foreground packet arrival rate, packets/second")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Out-of-range parameters would panic in the integrator or print NaN
	// columns, so they are rejected before any mode runs.
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"c", *c > 0}, {"n", *n > 0}, {"r", *r > 0}, {"delta", *delta > 0},
		{"step", *step > 0}, {"every", *every > 0}, {"dur", *dur >= 0},
	} {
		if !f.ok {
			fmt.Fprintf(stderr, "pertfluid: -%s %s is out of range\n", f.name, fs.Lookup(f.name).Value)
			return 2
		}
	}
	if *tmin >= *tmax {
		fmt.Fprintf(stderr, "pertfluid: -tmin %v must be below -tmax %v\n", *tmin, *tmax)
		return 2
	}

	p := fluid.PERTParams{
		C: *c, N: *n, R: r.Seconds(),
		Tmin: tmin.Seconds(), Tmax: tmax.Seconds(), Pmax: *pmax,
		Alpha: *alpha, Delta: delta.Seconds(),
	}

	switch *mode {
	case "trajectory":
		w, pr, tq := p.Equilibrium()
		fmt.Fprintf(stderr, "equilibrium: W*=%.3f pkts  p*=%.4f  Tq*=%.4fs\n", w, pr, tq)
		fmt.Fprintln(stdout, "t,window_pkts,queue_delay_s,smoothed_delay_s")
		i := 0
		p.Trajectory(dur.Seconds(), step.Seconds(), func(t float64, x []float64) {
			if i%*every == 0 {
				fmt.Fprintf(stdout, "%.3f,%.4f,%.5f,%.5f\n", t, x[0], x[1], x[2])
			}
			i++
		})
	case "stability":
		lhs, rhs, ok := fluid.StableTheorem1(p, p.N, p.R)
		fmt.Fprintf(stdout, "Theorem 1: lhs=%.4f rhs=%.4f stable=%v\n", lhs, rhs, ok)
		fmt.Fprintf(stdout, "equilibrium feasible (p* <= pmax): %v\n", fluid.EquilibriumFeasible(p))
		b := fluid.StabilityBoundaryR(p, 0.01, 2.0, 0.001)
		fmt.Fprintf(stdout, "stability boundary in R (this config): %.3fs\n", b)
	case "hybrid":
		// The hybrid coupling of DESIGN.md §10, driven by a constant
		// foreground rate: the aggregate yields (C - aprate)/C of the link
		// and settles at the shifted equilibrium. Advanced with the
		// resumable Stepper, the same API the netem co-simulation uses.
		w, pr, tq := p.HybridEquilibrium(*apRate)
		fmt.Fprintf(stderr, "hybrid equilibrium at %.0f pkt/s foreground: W*=%.3f pkts  p*=%.4f  Tq*=%.4fs\n",
			*apRate, w, pr, tq)
		sys := p.HybridSystem(fluid.HybridInputs{PacketRate: func() float64 { return *apRate }})
		st := fluid.NewStepper(sys, []float64{1, 0, 0}, 0, step.Seconds())
		fmt.Fprintln(stdout, "t,window_pkts,queue_delay_s,smoothed_delay_s")
		for i := 0; st.Time() < dur.Seconds(); i++ {
			if i%*every == 0 {
				x := st.State()
				fmt.Fprintf(stdout, "%.3f,%.4f,%.5f,%.5f\n", st.Time(), x[0], x[1], x[2])
			}
			st.Step()
		}
	case "mindelta":
		fmt.Fprintln(stdout, "n_min,min_delta_s")
		for nm := 1.0; nm <= 50; nm++ {
			fmt.Fprintf(stdout, "%.0f,%.6f\n", nm, fluid.MinDelta(p, nm, p.R))
		}
	default:
		fmt.Fprintf(stderr, "pertfluid: unknown mode %q\n", *mode)
		return 2
	}
	return 0
}
