package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBasicRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-scheme", "PERT", "-bw", "10e6", "-flows", "3",
		"-dur", "12s", "-warm", "4s"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"scheme         PERT", "avg queue", "utilization", "sojourn p99"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestTraceAndQSeriesFiles(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "p.tr")
	qs := filepath.Join(dir, "q.csv")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-flows", "2", "-bw", "5e6", "-dur", "6s", "-warm", "2s",
		"-trace", tr, "-qseries", qs}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	trData, err := os.ReadFile(tr)
	if err != nil || len(trData) == 0 {
		t.Fatalf("trace file: %v, %d bytes", err, len(trData))
	}
	qsData, err := os.ReadFile(qs)
	if err != nil || !strings.HasPrefix(string(qsData), "t_s,queue_pkts\n") {
		t.Fatalf("qseries file: %v, %q", err, string(qsData[:min(30, len(qsData))]))
	}
}

func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sc.json")
	os.WriteFile(cfg, []byte(`{"name":"vegas-cell","duration":"8s","measure_from":"2s",
		"topology":{"template":"dumbbell","bandwidth_bps":5e6},
		"groups":[{"label":"fwd","scheme":"Vegas","count":2,"from":"left","to":"right"}]}`), 0o644)
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-config", cfg}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"vegas-cell", "link forward", "group fwd"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("config not run as written (missing %q):\n%s", want, out.String())
		}
	}
}

// TestFlatConfigRejected: the flat dumbbell document schema is gone; such a
// file is a one-line error (exit 1) pointing at schema v2, run or -validate.
func TestFlatConfigRejected(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "flat.json")
	os.WriteFile(cfg, []byte(`{"scheme":"Vegas","bandwidth_bps":5e6,"flows":2,"duration":"8s","measure_from":"2s"}`), 0o644)
	for _, args := range [][]string{{"-config", cfg}, {"-config", cfg, "-validate"}} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if msg := errb.String(); !strings.Contains(msg, "schema v2") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: want one line naming schema v2, got %q", args, msg)
		}
	}
}

// TestConfigRejectsFlagOutputs: -trace, -qseries and -metrics describe the
// flag-built dumbbell, and so do the flags that build it; with a -config
// they would write or change nothing, so the combination is a usage error
// (exit 2) before anything runs or validates.
func TestConfigRejectsFlagOutputs(t *testing.T) {
	dir := t.TempDir()
	const cfg = "../../examples/scenarios/mixed_dumbbell.json"
	for _, flag := range []string{"-trace", "-qseries", "-metrics"} {
		out := filepath.Join(dir, flag[1:])
		var stdout, errb bytes.Buffer
		code := run(context.Background(), []string{"-config", cfg, flag, out}, &stdout, &errb)
		if code != 2 || !strings.HasPrefix(errb.String(), "pertsim: ") || strings.Count(errb.String(), "\n") != 1 {
			t.Errorf("%s with -config: exit %d, stderr %q; want exit 2 and one line", flag, code, errb.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s with -config created %s", flag, out)
		}
	}
	for _, args := range [][]string{
		{"-config", cfg, "-flows", "50", "-bw", "1", "-validate"},
		{"-config", "../../examples/scenarios/hybrid_isp.json", "-seed", "99"},
		{"-config", cfg, "-scheme", "Bogus"},
		{"-config", cfg, "-metrics-interval", "1s", "-validate"},
	} {
		var stdout, errb bytes.Buffer
		code := run(context.Background(), args, &stdout, &errb)
		msg := errb.String()
		if code != 2 || !strings.HasSuffix(msg, "apply to flag runs only, not to a -config scenario\n") ||
			strings.Count(msg, "\n") != 1 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one flag-run line", args, code, stdout.String(), msg)
		}
		if !strings.Contains(msg, args[2]) {
			t.Errorf("%v: stderr %q does not name %s", args, msg, args[2])
		}
	}
}

func TestHeterogeneousRTTs(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-rtts", "20ms,40ms", "-flows", "2", "-bw", "5e6",
		"-dur", "8s", "-warm", "2s"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-scheme", "PERT", "-bw", "10e6", "-flows", "3",
		"-dur", "12s", "-warm", "4s", "-seed", "9", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var tab struct {
		ID      string            `json:"id"`
		Columns []string          `json:"columns"`
		Rows    [][]string        `json:"rows"`
		Units   map[string]string `json:"units"`
	}
	if err := json.Unmarshal(out.Bytes(), &tab); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if tab.ID != "pertsim" || len(tab.Rows) != 1 {
		t.Fatalf("table: %+v", tab)
	}
	if len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("row width %d vs %d columns", len(tab.Rows[0]), len(tab.Columns))
	}
	if tab.Rows[0][0] != "PERT" || tab.Rows[0][1] != "9" {
		t.Fatalf("row: %v", tab.Rows[0])
	}
	if tab.Units["avg_queue_pkts"] != "packets" {
		t.Fatalf("units: %v", tab.Units)
	}
}

func TestErrorPaths(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-rtts", "garbage"}, &out, &errb); code != 2 {
		t.Fatalf("bad rtts exit = %d", code)
	}
	if code := run(context.Background(), []string{"-scheme", "TURBO"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scheme exit = %d", code)
	}
	if code := run(context.Background(), []string{"-config", "/nonexistent/x.json"}, &out, &errb); code != 1 {
		t.Fatalf("missing config exit = %d", code)
	}
	if code := run(context.Background(), []string{"-wat"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
}

// TestBadInputIsAnErrorNotAPanic: every flag and config-file input the one
// validator rejects exits non-zero (2 for flags, 1 for a config file) with a
// single-line message — never a goroutine trace — and -validate agrees.
func TestBadInputIsAnErrorNotAPanic(t *testing.T) {
	dir := t.TempDir()
	doc := func(name, topo, groups string) string {
		path := filepath.Join(dir, name+".json")
		os.WriteFile(path, []byte(`{"duration":"5s","topology":{"template":"dumbbell","bandwidth_bps":1e6,`+topo+`},"groups":[`+groups+`]}`), 0o644)
		return path
	}
	negFlows := doc("negflows", `"rtts":["60ms"]`,
		`{"scheme":"PERT","count":-1,"from":"left","to":"right"},{"scheme":"PERT","count":2,"from":"left","to":"right","traffic":"web"}`)
	zeroRTT := doc("zerortt", `"rtts":["0ms"]`, `{"scheme":"PERT","count":2,"from":"left","to":"right"}`)
	shortRTT := doc("shortrtt", `"delay":"20ms","rtts":["10ms"]`, `{"scheme":"PERT","count":2,"from":"left","to":"right"}`)
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-warm", "100s", "-dur", "60s"}, 2},
		{[]string{"-flows", "-3"}, 2},
		{[]string{"-bw", "0"}, 2},
		{[]string{"-rtt", "0"}, 2},
		{[]string{"-loss", "1.5"}, 2},
		{[]string{"-rtts", "120ms,12ms"}, 2},
		{[]string{"-flows", "0", "-reverse", "2"}, 2},
		{[]string{"-dur", "20s", "-warm", "5s", "-flows", "4", "-shards", "4"}, 2},
		{[]string{"-shards", "1"}, 2},
		{[]string{"-parallel", "7"}, 2},
		{[]string{"-timeout", "1ns"}, 2},
		{[]string{"-stall-window", "1ns"}, 2},
		{[]string{"-retries", "3"}, 2},
		{[]string{"-timeout", "1ns", "-retries", "3", "-stall-window", "1ns", "-parallel", "7"}, 2},
		{[]string{"-config", negFlows}, 1},
		{[]string{"-config", negFlows, "-validate"}, 1},
		{[]string{"-config", zeroRTT}, 1},
		{[]string{"-config", zeroRTT, "-validate"}, 1},
		{[]string{"-config", shortRTT, "-validate"}, 1},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), tc.args, &out, &errb); code != tc.code {
			t.Errorf("%v: exit %d, want %d: %s", tc.args, code, tc.code, errb.String())
		}
		msg := errb.String()
		if !strings.HasPrefix(msg, "pertsim: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: want one \"pertsim: ...\" line on stderr, got %q", tc.args, msg)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestV2ConfigCache: a schema-v2 run with -cache-dir replays on the second
// invocation with identical table output.
func TestV2ConfigCache(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "v2.json")
	os.WriteFile(cfg, []byte(`{
		"name": "cache-test", "seed": 3,
		"duration": "8s", "measure_from": "2s",
		"topology": {"template": "dumbbell", "bandwidth_bps": 5e6},
		"groups": [{"scheme": "PERT", "count": 2, "from": "left", "to": "right"}]
	}`), 0o644)
	cache := filepath.Join(dir, "cache")
	args := []string{"-config", cfg, "-json", "-cache-dir", cache}

	var out1, out2, errb bytes.Buffer
	if code := run(context.Background(), args, &out1, &errb); code != 0 {
		t.Fatalf("cold exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := run(context.Background(), args, &out2, &errb); code != 0 {
		t.Fatalf("warm exit %d: %s", code, errb.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("replayed table differs:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), `"id"`) {
		t.Fatalf("not a table: %s", out1.String())
	}
}

func TestCacheRequiresV2Config(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-flows", "2", "-dur", "6s", "-cache-dir", t.TempDir()}, &out, &errb); code != 2 {
		t.Fatalf("cache without v2 config exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "schema-v2") {
		t.Fatalf("error message: %s", errb.String())
	}
}

func TestIsolateRequiresV2Config(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-flows", "2", "-dur", "6s", "-isolate"}, &out, &errb); code != 2 {
		t.Fatalf("ad-hoc -isolate exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "schema-v2") {
		t.Fatalf("error message: %s", errb.String())
	}
}

func TestCacheFsck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-cache-fsck"}, &out, &errb); code != 2 {
		t.Fatalf("fsck without -cache-dir exit = %d", code)
	}
	out.Reset()
	errb.Reset()
	if code := run(context.Background(), []string{"-cache-fsck", "-cache-dir", t.TempDir()}, &out, &errb); code != 0 {
		t.Fatalf("fsck on empty cache exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0 cells checked") {
		t.Fatalf("fsck summary: %q", out.String())
	}
}

// TestV2ShardsFlag: the -shards flag overrides a v2 document's shard count
// in both directions — forcing a sharded file serial (-shards 1, no shards
// note) and sharding a serial file (-shards 2, note present) — and
// -validate applies the stricter shard rules to the merged spec.
func TestV2ShardsFlag(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "lot.json")
	os.WriteFile(cfg, []byte(`{
		"name": "lot", "seed": 5, "shards": 4,
		"topology": {"template": "parkinglot", "routers": 3, "cloud_size": 2, "core_bw_bps": 8e6},
		"groups": [
			{"scheme": "PERT", "count": 2, "from": "cloud1", "to": "cloud2", "start_window": "1s"},
			{"scheme": "PERT", "count": 2, "from": "cloud2", "to": "cloud3", "start_window": "1s"}
		],
		"duration": "6s", "measure_from": "2s"
	}`), 0o644)

	var serial, sharded, errb bytes.Buffer
	if code := run(context.Background(), []string{"-config", cfg, "-shards", "1"}, &serial, &errb); code != 0 {
		t.Fatalf("-shards 1 exit %d: %s", code, errb.String())
	}
	if strings.Contains(serial.String(), "shards=") {
		t.Fatalf("-shards 1 did not force the serial path:\n%s", serial.String())
	}
	errb.Reset()
	if code := run(context.Background(), []string{"-config", cfg, "-shards", "2"}, &sharded, &errb); code != 0 {
		t.Fatalf("-shards 2 exit %d: %s", code, errb.String())
	}
	if !strings.Contains(sharded.String(), "shards=2 events_per_shard=") {
		t.Fatalf("-shards 2 note missing:\n%s", sharded.String())
	}

	// A serial-only feature (a delay-changing schedule; capacity changes and
	// flaps shard fine) must fail -validate once the flag requests sharding,
	// and still pass without it.
	bad := filepath.Join(dir, "sched.json")
	os.WriteFile(bad, []byte(`{
		"name": "sched", "seed": 5,
		"topology": {"template": "parkinglot", "routers": 3, "cloud_size": 2, "core_bw_bps": 8e6},
		"groups": [{"scheme": "PERT", "count": 2, "from": "cloud1", "to": "cloud2", "start_window": "1s"}],
		"links": [{"link": "core1", "schedule": [{"at": "3s", "delay": "9ms"}]}],
		"duration": "6s", "measure_from": "2s"
	}`), 0o644)
	var out bytes.Buffer
	errb.Reset()
	if code := run(context.Background(), []string{"-config", bad, "-validate"}, &out, &errb); code != 0 {
		t.Fatalf("serial -validate exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := run(context.Background(), []string{"-config", bad, "-validate", "-shards", "4"}, &out, &errb); code != 2 {
		t.Fatalf("sharded -validate exit %d (want 2): %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "schedule") {
		t.Fatalf("rejection should name the schedule: %s", errb.String())
	}
}

// TestOutputWriteErrorsExit1: a trace, queue series or metrics file the run
// cannot write is an error (exit 1, the cause on stderr), never data lost
// behind a zero exit. /dev/full accepts the open and fails every write.
func TestOutputWriteErrorsExit1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full device")
	}
	for _, flag := range []string{"-trace", "-qseries", "-metrics"} {
		var out, errb bytes.Buffer
		code := run(context.Background(), []string{"-dur", "2s", "-warm", "1s", "-flows", "2", flag, "/dev/full"}, &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), "no space left on device") {
			t.Errorf("%s /dev/full: exit %d, stderr %q", flag, code, errb.String())
		}
	}
}

// TestFlagPathGolden pins the flag path byte for byte: the -json table and
// the SHA-256 of the -trace file for one flag set that exercises reverse
// flows, web sessions, heterogeneous RTTs, access jitter, every wire fault
// and the buffer sizing rule (-buffer 0). Nothing else runs this path
// against a recorded result, so a change in how flags become a scenario
// shows here first.
func TestFlagPathGolden(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "p.tr")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-scheme", "PERT", "-bw", "4e6", "-flows", "4",
		"-reverse", "1", "-web", "3", "-rtts", "60ms,90ms", "-jitter", "1ms",
		"-loss", "0.002", "-dup", "0.001", "-reorder", "0.001", "-buffer", "0",
		"-dur", "20s", "-warm", "5s", "-seed", "7", "-json", "-trace", tr}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flagpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output differs from testdata/flagpath.json:\n%s", out.String())
	}
	trace, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := os.ReadFile(filepath.Join("testdata", "flagpath.trace.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != strings.TrimSpace(string(wantSum)) {
		t.Errorf("trace SHA-256 = %s, want %s", got, strings.TrimSpace(string(wantSum)))
	}
}
