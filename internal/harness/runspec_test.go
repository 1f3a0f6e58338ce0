package harness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pert/internal/experiments"
	"pert/internal/scenario"
	"pert/internal/sim"
)

// goldenCodeVersion pins the code-version component so the digests below
// survive commits; live keys use Version() instead.
const goldenCodeVersion = "test"

// goldenCellKeys pins the cache key of every registry experiment at quick
// scale (seed 0, metrics off) under cacheKeySchema 1. A mismatch means the
// identity layout changed: bump cacheKeySchema and regenerate, or the field
// change was accidental — never silently update a digest without knowing
// which.
var goldenCellKeys = map[string]string{
	"section2":          "43944f84cc3a9fd51405afb3f9f49c844fa8c658bc3ca9a565919962f2e55b21",
	"fig5":              "923b7ef2da3905ffd1d6879ffecca76b855dc6b77fc2bfc1ec880db5bd7693b2",
	"fig6":              "951f7f7d6b9ef5d308b89329fd6f1bd952778cee67e798d1fc3ac2100985d067",
	"fig7":              "fb912b57bc6b72c0b55d2bf072c67090ac46c10da8a860217423a0ce31bd6f74",
	"fig8":              "0d03c21b6719948744fcf1f924ee05ad5c18be87ea76af5b7b998730712a56cf",
	"fig9":              "b4233bc1cb6be3f7853a4fe92f8edef45b5c405093b9ff393f94f0bd783114d1",
	"fig11":             "3dd6e1e8b1aa323c763b54afcee6aacb8c25e6253b5926178130fe5063e064af",
	"fig12":             "cea06806dfeb4cb36749dabefa87c8f5de023124386bf7ffcecc7fb660eec3e8",
	"fig13":             "48f925defcdf51d2209cb35b7bedee8bd29fb5e73ed3b663732f2e01e2b1ed26",
	"fig14":             "64439967e2c73be9085c1dff9005c77883eed92d6519e9ca9949e11e3a24b67e",
	"ext-aqm":           "9b021083c83f45ba687ac8276232ecfe057fa7acda54bc48f528e2857f31a51f",
	"ext-coexist":       "6479ca32da67fd73e0b032cdab071b1817aac942ffa199536acb5a105f538057",
	"ext-delaycc":       "ab42fce10682afc0e665c629b2198247ceeebd7f5fd94a95c80ff7e98ce6bf14",
	"ext-fct":           "2768f9ea3371930175c86d387ea7d6a7754ad97388faf4170fc2f6198b8f2c1f",
	"ext-flap":          "0fe16bcecc05bd25a2871090ba901ef8b762934d047ff320c1d081d6bddc3998",
	"ext-highspeed":     "f657c15d19e258cd457dfe6d397badcacb9b9ea3043fcaab72a9c138931496ee",
	"ext-hybrid":        "16f20c684795d3702117338603a3b2023409879f9fe9c2dfc0fff4072506ab17",
	"ext-jitter":        "4af8917a19e0315116aee477e7c74daf511e3bf0fd5e1cbec71e86868cf55a3f",
	"ext-lossy":         "5018aabf3e40e96d05002e31508429db6b16e6cd70fcd0d829fcfa153972eacc",
	"ext-parkinglot-xl": "ac295134ee23ee5fd55f2b26ae1c0ac840618fd810cf2dd42f9fa528a333337a",
	"ext-replicated":    "33ab693d378f5579005cc92708626dcb3169ee0f4cdaeb0cf50eb439a1683959",
	"ext-stability":     "23c086c3d7c904218b3f080b21d53c19506df66196b791a8834737c69bf2e0d4",
	"ext-validation":    "1bfea074012168569a1a912ecb21981d47715455c259b44a5e822285ed0fedce",
	"table1":            "705213a2cb6dc5415f866f1c96a2268cafa7958fd469b4d67190433e31dd815a",
}

func TestGoldenCellKeys(t *testing.T) {
	spec := RunSpec{Scale: string(experiments.Quick)}
	ids := experiments.IDs()
	if len(ids) != len(goldenCellKeys) {
		t.Errorf("registry has %d experiments, golden map has %d — regenerate", len(ids), len(goldenCellKeys))
	}
	for _, id := range ids {
		got, err := spec.CellKey(id, goldenCodeVersion)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want, ok := goldenCellKeys[id]
		if !ok {
			t.Errorf("%s: no golden key — regenerate the map", id)
			continue
		}
		if got != want {
			t.Errorf("%s: key %s, golden %s (identity layout changed? bump cacheKeySchema)", id, got, want)
		}
	}
}

func TestCellKeyIgnoresMechanics(t *testing.T) {
	base := RunSpec{Scale: string(experiments.Quick)}
	baseKey, err := base.CellKey("fig6", goldenCodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	// Mechanics and runtime wiring must not move the key: results are
	// bit-identical across all of these by the engine's determinism contract.
	same := []RunSpec{
		{Scale: "quick"}, // explicit quick == default
		{Scale: "quick", Workers: 7},
		{Scale: "quick", Timeout: time.Minute, StallWindow: time.Second},
		{Scale: "quick", Sink: NewWriterSink(nil)},
		{Scale: "quick", Cache: CachePolicy{Dir: "/elsewhere"}},
		{Scale: "quick", Isolate: true, Retries: 3},
		{Scale: "quick", MetricsInterval: time.Second}, // interval without metrics on
	}
	for i, s := range same {
		k, err := s.CellKey("fig6", goldenCodeVersion)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if k != baseKey {
			t.Errorf("spec %d moved the key: %s vs %s", i, k, baseKey)
		}
	}
	// Identity fields must move it.
	different := []RunSpec{
		{Scale: string(experiments.Paper)},
		{Scale: "quick", Seed: 42},
		{Scale: "quick", MetricsDir: "m"},
		{Scale: "quick", MetricsDir: "m", MetricsInterval: time.Second},
	}
	seen := map[string]int{baseKey: -1}
	for i, s := range different {
		k, err := s.CellKey("fig6", goldenCodeVersion)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %d and %d share a key", i, prev)
		}
		seen[k] = i
	}
	// The metrics *location* is not identity — only the on/off switch is.
	a, _ := RunSpec{Scale: "quick", MetricsDir: "m1"}.CellKey("fig6", goldenCodeVersion)
	b, _ := RunSpec{Scale: "quick", MetricsDir: "m2"}.CellKey("fig6", goldenCodeVersion)
	if a != b {
		t.Error("metrics directory location moved the key")
	}
	// Different experiments and code versions never collide.
	if k, _ := base.CellKey("fig7", goldenCodeVersion); k == baseKey {
		t.Error("fig6 and fig7 share a key")
	}
	if k, _ := base.CellKey("fig6", "other-version"); k == baseKey {
		t.Error("code version not in the key")
	}
}

// TestShardsCellKeys: shards 0 and 1 are both the serial engine and must
// share cells (with each other and with pre-shards specs); shards > 1 is a
// different execution — per-shard RNG streams — and must never collide with
// serial cells or with other shard counts. Same contract for inline
// scenarios, where the count lives in the spec.
func TestShardsCellKeys(t *testing.T) {
	key := func(s RunSpec) string {
		k, err := s.CellKey("ext-parkinglot-xl", goldenCodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	serial := key(RunSpec{Scale: "quick"})
	if k := key(RunSpec{Scale: "quick", Shards: 1}); k != serial {
		t.Error("shards=1 forked the serial cell key")
	}
	k4, k8 := key(RunSpec{Scale: "quick", Shards: 4}), key(RunSpec{Scale: "quick", Shards: 8})
	if k4 == serial || k8 == serial {
		t.Error("sharded run shares a cell with the serial run")
	}
	if k4 == k8 {
		t.Error("shards=4 and shards=8 share a cell")
	}

	scen := func(shards int) string {
		sp := scenario.Spec{
			Name: "xl",
			Seed: 1,
			Topology: scenario.TopologySpec{
				Template: scenario.ParkingLotTemplate, Routers: 4, CloudSize: 4,
			},
			Groups: []scenario.FlowGroupSpec{
				{Scheme: "PERT", Count: 2, From: "cloud1", To: "cloud4"},
			},
			Duration: 10 * sim.Second,
			Shards:   shards,
		}
		k, err := RunSpec{Scale: "quick", Scenario: &sp}.ScenarioKey(goldenCodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if scen(0) != scen(1) {
		t.Error("scenario shards=0 and shards=1 hash differently")
	}
	if scen(0) == scen(4) {
		t.Error("sharded scenario shares a cell with the serial scenario")
	}
}

// TestScenarioKeyCanonicalJSON is the property test of the ISSUE: two
// semantically identical v2 documents — fields reordered, defaults elided,
// durations spelled differently — must hash to the same cell.
func TestScenarioKeyCanonicalJSON(t *testing.T) {
	// docA leans on defaults: aqm from the first group's scheme, traffic
	// kind ftp, measure_until = duration.
	docA := `{
		"name": "prop",
		"seed": 7,
		"duration": "20s",
		"measure_from": "5s",
		"topology": {"template": "dumbbell", "bandwidth_bps": 10e6},
		"groups": [{"scheme": "PERT", "count": 4, "from": "left", "to": "right"}]
	}`
	// Same scenario with everything explicit: keys reordered, durations
	// spelled in milliseconds, numeric literal style changed, every default
	// docA elides written out.
	docB := `{
		"groups": [{"count": 4, "to": "right", "from": "left", "scheme": "PERT", "traffic": "ftp", "start_at": "0s"}],
		"topology": {"aqm": "PERT", "bandwidth_bps": 10000000, "template": "dumbbell"},
		"measure_from": "5000ms",
		"measure_until": "20000ms",
		"duration": "20000ms",
		"seed": 7,
		"name": "prop"
	}`
	keyOf := func(doc string) string {
		t.Helper()
		sp, err := scenario.Load(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		k, err := RunSpec{Scenario: &sp}.ScenarioKey(goldenCodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if keyOf(docA) != keyOf(docB) {
		t.Fatal("semantically identical v2 documents hashed differently")
	}
	// A real semantic change must move the key.
	docC := strings.Replace(docA, `"count": 4`, `"count": 5`, 1)
	if keyOf(docA) == keyOf(docC) {
		t.Fatal("different scenarios share a key")
	}
}

// TestScenarioKeyRejectsGoOnlyOverrides: a spec without an inline scenario
// has no scenario cell to key. (Every scenario.Spec field is serializable,
// so any inline scenario is content-addressable.)
func TestScenarioKeyRejectsGoOnlyOverrides(t *testing.T) {
	if _, err := (RunSpec{}).ScenarioKey(goldenCodeVersion); err == nil {
		t.Fatal("nil scenario produced a key")
	}
}

func TestRunSpecJSONRoundTripOmitsWiring(t *testing.T) {
	spec := RunSpec{
		Experiments: []string{"fig5"},
		Scale:       "quick",
		Workers:     3,
		Sink:        NewWriterSink(nil),
		Cache:       CachePolicy{Dir: "d"},
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	for _, banned := range []string{"Sink", "sink"} {
		if strings.Contains(s, banned) {
			t.Errorf("serialized spec leaked runtime wiring %q: %s", banned, s)
		}
	}
	var back RunSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scale != "quick" || back.Workers != 3 || back.Cache.Dir != "d" || len(back.Experiments) != 1 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestRunSpecValidate(t *testing.T) {
	if err := (RunSpec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	if err := (RunSpec{Scale: "huge"}).Validate(); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := (RunSpec{Scenario: &scenario.Spec{}}).Validate(); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	for _, s := range []RunSpec{
		{Timeout: -time.Second},
		{StallWindow: -5 * time.Second},
		{MetricsInterval: -time.Second},
		{Retries: -1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("negative setting accepted: %+v", s)
		}
	}
}
