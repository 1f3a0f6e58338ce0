package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pert/internal/scenario"
	"pert/internal/sim"
)

// xlTestSpec is a small multi-bottleneck scenario for runner tests: chain of
// routers with hop-by-hop PERT traffic, sized to finish in well under a
// second of wall clock.
func xlTestSpec(seed int64, routers int, edgeDelays []sim.Duration) scenario.Spec {
	var groups []scenario.FlowGroupSpec
	for hop := 1; hop < routers; hop++ {
		groups = append(groups, scenario.FlowGroupSpec{
			Scheme: "PERT", Count: 2,
			From: fmt.Sprintf("cloud%d", hop), To: fmt.Sprintf("cloud%d", hop+1),
			StartWindow: seconds(1),
		})
	}
	return scenario.Spec{
		Name: "shard-determinism",
		Seed: seed,
		Topology: scenario.TopologySpec{
			Template:   scenario.ParkingLotTemplate,
			Routers:    routers,
			CloudSize:  2,
			CoreBW:     8e6,
			EdgeDelays: edgeDelays,
		},
		Groups:   groups,
		Duration: seconds(6), MeasureFrom: seconds(2),
	}
}

// tableFingerprint renders the parts of a table the determinism contract
// covers: header and every cell, byte for byte.
func tableFingerprint(t *Table) string {
	b, _ := json.Marshal(struct {
		H []string
		R [][]string
	}{t.Header, t.Rows})
	return string(b)
}

// TestShardedRunnerSerialIdentity: the executor's group-of-one run produces
// the tables the serial engine produced before the serial/sharded fork was
// removed, byte for byte, across a randomized sample of scenario shapes — with
// Shards 0 and Shards 1 alike. The golden fingerprints were recorded from
// RunScenario's serial path (sim.NewEngine, no Partition, StartAudit on the
// one engine) at the last commit that had one. This pins the whole chain —
// domain-0 packet IDs, auditor event sequence, instrumentation attach order —
// not just the engine layer.
func TestShardedRunnerSerialIdentity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "serial_identity_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	if err := json.Unmarshal(raw, &golden); err != nil || len(golden) != 4 {
		t.Fatalf("golden file: %d fingerprints, err %v", len(golden), err)
	}
	rng := rand.New(rand.NewSource(42))
	delayPool := []sim.Duration{ms(1), ms(2), ms(4), ms(8)}
	for trial, want := range golden {
		routers := 3 + rng.Intn(3)
		edges := make([]sim.Duration, 1+rng.Intn(3))
		for i := range edges {
			edges[i] = delayPool[rng.Intn(len(delayPool))]
		}
		spec := xlTestSpec(100+int64(trial), routers, edges)
		for _, shards := range []int{0, 1} {
			spec.Shards = shards
			tab, err := RunScenario(spec)
			if err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
			}
			if got := tableFingerprint(tab); got != want {
				t.Errorf("trial %d (routers=%d edges=%v) shards=%d: table diverged from the recorded serial run\nserial: %s\ngot:    %s",
					trial, routers, edges, shards, want, got)
			}
		}
	}
}

// TestShardedRunnerDeterminism: at a fixed shard count the parallel runner
// is deterministic — three runs, identical tables including the per-shard
// event counts in the notes.
func TestShardedRunnerDeterminism(t *testing.T) {
	spec := xlTestSpec(7, 4, []sim.Duration{ms(1), ms(5)})
	spec.Shards = 4
	var first *Table
	for rep := 0; rep < 3; rep++ {
		tab, err := RunScenario(spec)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if rep == 0 {
			first = tab
			continue
		}
		if !reflect.DeepEqual(tab.Rows, first.Rows) || !reflect.DeepEqual(tab.Notes, first.Notes) {
			t.Fatalf("rep %d diverged:\nfirst: %v %v\nthis:  %v %v",
				rep, first.Rows, first.Notes, tab.Rows, tab.Notes)
		}
	}
	// The notes must carry the shard evidence the benchmark reads.
	found := false
	for _, n := range first.Notes {
		if len(n) >= 8 && n[:7] == "shards=" {
			found = true
		}
	}
	if !found {
		t.Errorf("no shards= note in %v", first.Notes)
	}
}

// TestShardedRunnerClampsToTopology: asking for more shards than routers
// clamps rather than failing, and still balances the ledger.
func TestShardedRunnerClampsToTopology(t *testing.T) {
	spec := xlTestSpec(3, 3, nil)
	spec.Shards = 16
	tab, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if n == "shards=16" {
			t.Error("shard count not clamped to router count")
		}
	}
}
