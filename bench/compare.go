package main

import (
	"fmt"
	"io"
)

// compareFiles applies each end-to-end metric's direction and bound from
// BENCHMARK.json to two result files, one row per workload and metric, and
// returns an error if any row is worse. A row whose run-to-run spread (the
// quartile distance of either side's per-rep values over its median) exceeds
// the bound is unresolved rather than ok, unless every new value beats, or
// loses to, every old one. Exact counts and sim_digest are listed below the
// table: they say whether simulated behaviour moved, which is never an error
// by itself.
func compareFiles(d declaration, oldPath, newPath string, w io.Writer) error {
	oldF, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return err
	}
	find := func(f resultFile, workload string, trace int) *result {
		for i := range f.Runs {
			if f.Runs[i].Workload == workload && f.Runs[i].Trace == trace {
				return &f.Runs[i]
			}
		}
		return nil
	}

	worse := 0
	fmt.Fprintf(w, "%-18s %-10s %14s %14s %8s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, wl := range d.Workloads {
		o, n := find(oldF, wl.Name, 0), find(newF, wl.Name, 0)
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-18s missing from one of the files\n", wl.Name)
			continue
		}
		for _, md := range d.EndToEnd {
			ov, nv := o.Metrics[md.Name], n.Metrics[md.Name]
			v := verdict(md, ov, nv)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-10s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				wl.Name, md.Name, ov.Value, nv.Value, 100*(ratio(nv.Value, ov.Value)-1), 100*md.Bound, v)
		}
		if n.Failed > 0 {
			worse++
			fmt.Fprintf(w, "%-18s %d of %d cell executions failed in the new file: worse\n", wl.Name, n.Failed, n.Attempted)
		}
	}

	fmt.Fprintln(w, "\nsimulated behaviour (exact counts, must not move under a simulator-only change):")
	for _, wl := range d.Workloads {
		var moved []string
		if o, n := find(oldF, wl.Name, 0), find(newF, wl.Name, 0); o != nil && n != nil && o.SimDigest != n.SimDigest {
			moved = append(moved, "sim_digest")
		}
		if o, n := find(oldF, wl.Name, 1), find(newF, wl.Name, 1); o != nil && n != nil {
			for _, md := range d.PerLayer {
				if md.Unit == "count" && o.Metrics[md.Name].Value != n.Metrics[md.Name].Value {
					moved = append(moved, fmt.Sprintf("%s %.0f -> %.0f", md.Name, o.Metrics[md.Name].Value, n.Metrics[md.Name].Value))
				}
			}
		}
		if len(moved) == 0 {
			fmt.Fprintf(w, "%-18s identical\n", wl.Name)
		} else {
			fmt.Fprintf(w, "%-18s moved: %v\n", wl.Name, moved)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}

// verdict is "ok", "unresolved" or "worse" for one metric on one workload.
func verdict(md metricDecl, o, n sample) string {
	sign := 1.0 // change > 0 means worse
	if md.Better == "higher" {
		sign = -1
	}
	change := sign * (ratio(n.Value, o.Value) - 1)
	ovs, nvs := valuesOf(o), valuesOf(n)
	allBetter, allWorse := true, true
	for _, a := range ovs {
		for _, b := range nvs {
			if sign*(b-a) >= 0 {
				allBetter = false
			}
			if sign*(b-a) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case allWorse && change > md.Bound:
		return "worse"
	case spread(ovs) > md.Bound || spread(nvs) > md.Bound:
		return "unresolved"
	case change > md.Bound:
		return "worse"
	}
	return "ok"
}

func valuesOf(s sample) []float64 {
	if len(s.Values) > 0 {
		return s.Values
	}
	return []float64{s.Value}
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for fewer than four values.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := sorted(xs)
	return ratio(quantile(s, 0.75)-quantile(s, 0.25), quantile(s, 0.5))
}
