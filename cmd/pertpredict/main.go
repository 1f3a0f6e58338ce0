// Command pertpredict runs the Section 2 congestion-prediction study on a
// single configurable traffic case: it simulates the trace-collection
// topology with a tagged flow, then evaluates every predictor against
// queue-level and flow-level losses. Traces can be saved and re-analyzed
// without re-simulating.
//
// Examples:
//
//	pertpredict -flows 25 -web 250 -dur 150s
//	pertpredict -flows 25 -web 250 -save trace.json
//	pertpredict -load trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pert/internal/experiments"
	"pert/internal/predictors"
	"pert/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pertpredict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flows := fs.Int("flows", 25, "long-term flows (forward; reverse gets half)")
	web := fs.Int("web", 250, "web sessions (forward; reverse gets half)")
	dur := fs.Duration("dur", 150*time.Second, "trace duration")
	scale := fs.String("scale", "quick", "quick (50 Mbps) or paper (100 Mbps) link sizing")
	save := fs.String("save", "", "after collecting, save the trace as JSON to this path")
	load := fs.String("load", "", "skip simulation and analyze a trace saved with -save")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	s := experiments.Scale(*scale)
	if !s.Valid() {
		fmt.Fprintf(stderr, "pertpredict: unknown scale %q\n", *scale)
		return 2
	}
	_, bw, buf, _, warm := experiments.Section2Cases(s)
	var tr *predictors.Trace
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintf(stderr, "pertpredict: %v\n", err)
			return 1
		}
		tr, err = predictors.LoadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "pertpredict: %v\n", err)
			return 1
		}
	} else {
		// CollectTrace compiles these into a scenario and panics on one that
		// cannot run; a trace no longer than the warm-up holds no samples.
		if sim.Time(*dur) <= warm || *flows < 1 || *web < 0 {
			fmt.Fprintf(stderr, "pertpredict: need -dur > the %v warm-up, -flows >= 1 and -web >= 0\n", time.Duration(warm))
			return 2
		}
		c := experiments.Section2Case{Name: "custom", LongFlows: *flows, Web: *web}
		tr = experiments.CollectTrace(c, 1, bw, buf, sim.Time(*dur), warm)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintf(stderr, "pertpredict: %v\n", err)
			return 1
		}
		err = tr.Save(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "pertpredict: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "trace: %d RTT samples, %d queue drops, %d flow loss events\n\n",
		len(tr.Samples), len(tr.QueueLosses), len(tr.FlowLosses))

	qLosses := predictors.CoalesceLosses(tr.QueueLosses, 60*sim.Millisecond)
	fLosses := predictors.CoalesceLosses(tr.FlowLosses, 60*sim.Millisecond)

	fmt.Fprintf(stdout, "%-12s %28s %28s\n", "", "vs queue losses", "vs flow losses")
	fmt.Fprintf(stdout, "%-12s %9s %9s %8s %9s %9s %8s\n", "predictor", "eff", "falsePos", "falseNeg", "eff", "falsePos", "falseNeg")
	for i := range predictors.Suite(5*sim.Millisecond, buf) {
		pq := predictors.Suite(5*sim.Millisecond, buf)[i]
		pf := predictors.Suite(5*sim.Millisecond, buf)[i]
		rq := predictors.Evaluate(pq, tr, qLosses)
		rf := predictors.Evaluate(pf, tr, fLosses)
		fmt.Fprintf(stdout, "%-12s %9.3f %9.3f %8.3f %9.3f %9.3f %8.3f\n", pq.Name(),
			rq.Efficiency(), rq.FalsePositives(), rq.FalseNegatives(),
			rf.Efficiency(), rf.FalsePositives(), rf.FalseNegatives())
	}
	return 0
}
