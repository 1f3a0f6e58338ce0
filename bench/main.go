// Command bench is the repository's benchmark: five named workloads, the
// end-to-end metrics a user of the simulator sees, and a per-layer ledger.
// BENCHMARK.json at the repository root declares the metrics, their units,
// directions and bounds; README.md in this directory says how to read them.
//
//	bash bench/run.sh                                  # all workloads, untraced then traced
//	bash bench/run.sh --workload web_churn --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh -compare OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pert/internal/harness"
)

// plan is how much a run does; the tier-1 test runs a smaller one through
// the same code.
type plan struct {
	seconds float64 // keep making timed reps until this much wall time has passed
	minReps int     // but never fewer than this
	setups  int     // set-ups per untraced run; setup_s is their median
	sanity  bool    // apply the workloads' sanity checks (full-size cells only)
	// drivers are micro-driver results measured earlier in this process (they
	// do not depend on the workload); nil means measure them in this run.
	drivers map[string]float64
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is BENCHMARK.json: the single place units, directions and
// bounds are written down. The program reads it and never writes it.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclaration(root string) (declaration, error) {
	var d declaration
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// stamp gives every measured value its declared unit, and fails unless the
// measured names are exactly the declared ones.
func stamp(decl []metricDecl, measured map[string]sample) error {
	declared := map[string]bool{}
	for _, md := range decl {
		s, ok := measured[md.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", md.Name)
		}
		s.Unit = md.Unit
		measured[md.Name] = s
		declared[md.Name] = true
	}
	for name := range measured {
		if !declared[name] {
			return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// provenance says where and when a result was measured.
type provenance struct {
	Commit     string    `json:"commit"` // git rev-parse HEAD, "+dirty" when the tree is modified
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUModel   string    `json:"cpu_model"`
	Seed       int64     `json:"seed"`
	Reps       int       `json:"reps"`
	Started    time.Time `json:"started"`
}

func newProvenance(root string, seed int64, started time.Time) provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Seed: seed, Started: started.UTC()}
	if head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(head))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			p.Commit += "+dirty"
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// result is one run of one workload, as written to the result files.
type result struct {
	Workload   string            `json:"workload"`
	Trace      int               `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	SimDigest  string            `json:"sim_digest"`
	Metrics    map[string]sample `json:"metrics"`
	Provenance provenance        `json:"provenance"`
}

// resultFile is the shape of every file the benchmark writes and -compare
// reads: one run per (workload, trace) pair.
type resultFile struct {
	Runs []result `json:"runs"`
}

func writeResults(path string, runs []result) error {
	doc, err := json.MarshalIndent(resultFile{runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// dirs are the places a run may write, all inside the checkout.
type dirs struct {
	root, out, tmp string
}

// runWorkload measures one workload once, untraced or traced, and prints
// every metric by name with its unit.
func runWorkload(ctx context.Context, d declaration, w workload, seed int64, pl plan, trace int, where dirs) (result, error) {
	started := time.Now()
	var (
		measured map[string]sample
		out      outcome
		err      error
		decl     = d.EndToEnd
	)
	if trace == 0 {
		measured, out, err = runUntraced(ctx, w, seed, pl, where.tmp)
	} else {
		decl = d.PerLayer
		measured, out, err = runTraced(ctx, w, seed, pl, where.tmp, filepath.Join(where.out, "trace-"+w.name+".json"))
		if err == nil {
			// The drivers run last: their heaps must not count toward the
			// workload's peak RSS.
			drivers := pl.drivers
			if drivers == nil {
				var derr error
				if drivers, derr = runDrivers(ctx, seed); derr != nil {
					out.failures = append(out.failures, derr.Error())
				}
			}
			for name, v := range drivers {
				measured[name] = scalar(v)
			}
		}
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := stamp(decl, measured); err != nil {
		return result{}, err
	}
	prov := newProvenance(where.root, seed, started)
	prov.Reps = out.reps
	res := result{
		Workload: w.name, Trace: trace, Seconds: pl.seconds,
		Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: min(len(out.failures), out.attempted),
		Failures: out.failures, SimDigest: out.simDigest, Metrics: measured, Provenance: prov,
	}

	fmt.Printf("== %s  seed=%d trace=%d reps=%d  commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		w.name, seed, trace, out.reps, prov.Commit, prov.GoVersion, prov.NumCPU, prov.GOMAXPROCS)
	for _, md := range decl {
		s := measured[md.Name]
		line := fmt.Sprintf("  %-30s %14s %-8s", md.Name, number(s.Value), s.Unit)
		if n := len(s.Values); n > 0 {
			asc := sorted(s.Values)
			line += fmt.Sprintf(" median of n=%d, min %.6g, max %.6g", n, asc[0], asc[n-1])
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-30s %s\n", "sim_digest", res.SimDigest)
	fmt.Printf("  cells attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	return res, nil
}

// number prints whole numbers (the exact counts) in full and everything else
// to six significant digits.
func number(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// lastLine is the object the driver reads off the last line of stdout.
func lastLine(res result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, s := range res.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // only NaN or Inf can do this, and every ratio is guarded
	}
	return string(line)
}

func main() {
	// An isolated sweep re-execs this binary as a cell worker.
	harness.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run this one workload and print the result object on the last line (default: all of them, untraced then traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same cells")
	seconds := flag.Float64("seconds", 0, "keep making timed reps for this long (default: run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, nothing of the benchmark's own switched on; 1: the per-layer ledger")
	rootDir := flag.String("root", "..", "checkout root, the directory that holds BENCHMARK.json (run.sh passes it; the default suits `go run .` in bench/)")
	cmp := flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	flag.Parse()

	root, err := filepath.Abs(*rootDir)
	if err != nil {
		return err
	}
	d, err := loadDeclaration(root)
	if err != nil {
		return err
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: -compare OLD.json NEW.json")
		}
		return compareFiles(d, flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	where := dirs{root: root, out: filepath.Join(root, ".bench_build", "out"), tmp: filepath.Join(root, ".bench_build", "tmp")}
	for _, dir := range []string{where.out, where.tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	pl := plan{seconds: *seconds, minReps: 5, setups: 3, sanity: true}
	if pl.seconds == 0 {
		pl.seconds = float64(d.RunSeconds)
	}
	ctx, stop := harness.NotifyShutdown(context.Background())
	defer stop()

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		if err := useCPUs(w.cores()); err != nil {
			return err
		}
		res, err := runWorkload(ctx, d, w, *seed, pl, *trace, where)
		if err != nil {
			return err
		}
		if err := writeResults(filepath.Join(where.out, fmt.Sprintf("%s.trace%d.json", w.name, *trace)), []result{res}); err != nil {
			return err
		}
		fmt.Println(lastLine(res))
		return nil
	}
	return runAll(ctx, *seed, pl.seconds, where)
}

// runAll runs every workload the way the driver does — one process per
// (workload, trace) pair — and gathers their result files into one.
func runAll(ctx context.Context, seed int64, seconds float64, where dirs) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []result
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.CommandContext(ctx, self, "-root", where.root,
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
			}
			f, err := readResults(filepath.Join(where.out, fmt.Sprintf("%s.trace%d.json", w.name, trace)))
			if err != nil {
				return err
			}
			runs = append(runs, f.Runs...)
			failed += f.Runs[0].Failed
		}
	}
	path := filepath.Join(where.out, fmt.Sprintf("result-seed%d.json", seed))
	if err := writeResults(path, runs); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (spans: %s)\n", path, filepath.Join(where.out, "trace-<workload>.json"))
	if failed > 0 {
		return fmt.Errorf("%d cell executions failed", failed)
	}
	return nil
}
