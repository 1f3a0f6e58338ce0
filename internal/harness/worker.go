package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pert/internal/cache"
	"pert/internal/experiments"
)

// workerEnv marks a process as a cell worker: when set, MaybeWorker hijacks
// the process before flag parsing, runs the one cell described on stdin, and
// exits. The value is irrelevant; presence triggers worker mode.
const workerEnv = "PERT_WORKER_CELL"

// workerInput is the parent→worker handshake: the sweep spec (mechanics
// pre-cleared by forWorker), the single cell to run, and which attempt this
// is (recorded in the committed RunRecord).
type workerInput struct {
	Spec       RunSpec `json:"spec"`
	Experiment string  `json:"experiment"`
	Attempt    int     `json:"attempt"`
}

// workerResolveHook lets tests supply cells that are not in the experiments
// registry (the registry is a fixed slice; chaos-test cells live in the test
// binary). Consulted only after registry and scenario resolution fail.
var workerResolveHook func(id string) (experiments.Experiment, bool)

// MaybeWorker turns the process into a cell worker if workerEnv is set, and
// never returns in that case. Both binaries (and any test binary that wants
// isolated sweeps) must call it first thing in main, before flag parsing:
// the supervisor re-execs os.Executable with this variable set.
func MaybeWorker() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	os.Exit(workerMain(os.Stdin, os.Stdout, os.Stderr))
}

// workerMain runs one cell: workerInput JSON on stdin, RunRecord JSON on
// stdout, human noise on stderr. Exit 0 means "the record on stdout is the
// verdict" — including error/timeout records; a non-zero exit means the
// worker itself broke and the supervisor should record the cell as crashed.
func workerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	var in workerInput
	if err := json.NewDecoder(stdin).Decode(&in); err != nil {
		fmt.Fprintf(stderr, "worker: bad input: %v\n", err)
		return 3
	}
	rec := runWorkerCell(context.Background(), in)
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintf(stderr, "worker: encoding record: %v\n", err)
		return 3
	}
	return 0
}

// runWorkerCell executes the cell exactly like an in-process sweep would —
// same cache resolution, claim protocol, and commit — so the parent's only
// special handling is reading the record back instead of computing it. A
// cache the worker cannot open fails the cell rather than running it
// uncommitted.
func runWorkerCell(ctx context.Context, in workerInput) RunRecord {
	spec := in.Spec
	exp, ok := resolveCell(spec, in.Experiment)
	if !ok {
		return failedRecord(experiments.Experiment{ID: in.Experiment, Title: "unknown experiment"},
			spec, StatusError, fmt.Sprintf("worker: cannot resolve cell %q", in.Experiment), in.Attempt)
	}
	var store *cache.Store
	if spec.Cache.Dir != "" {
		s, err := cache.Open(spec.Cache.Dir)
		if err != nil {
			return failedRecord(exp, spec, StatusError, err.Error(), in.Attempt)
		}
		store = s
	}
	workers := spec.Workers
	if workers < 1 {
		workers = experiments.Workers(ctx)
	}
	ctx = experiments.WithWorkers(ctx, workers)
	return runCell(ctx, exp, spec, store, nil, 0, 1, 0, in.Attempt)
}

// resolveCell maps a cell ID back to a runnable experiment inside the worker
// process: the spec's inline scenario, the registry, then the test hook.
func resolveCell(spec RunSpec, id string) (experiments.Experiment, bool) {
	if spec.Scenario != nil && id == ScenarioCellID(spec.Scenario) {
		return scenarioExperiment(spec.Scenario), true
	}
	if exp, ok := experiments.ByID(id); ok {
		return exp, true
	}
	if workerResolveHook != nil {
		return workerResolveHook(id)
	}
	return experiments.Experiment{}, false
}

// forWorker derives the spec a worker receives: same identity and mechanics,
// but no recursion (a worker never isolates or retries — the parent owns
// both) and no runtime wiring (sinks don't serialize).
func (s RunSpec) forWorker() RunSpec {
	s.Isolate = false
	s.Retries = 0
	s.Sink = nil
	return s
}
