package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pert/internal/scenario"
)

// FuzzLoadScenario hardens the way a Section 4 cell document reaches this
// package's executor: scenario.Load, then the cell sizing rule, then start.
// For every accepted dumbbell document with a forward group, sizing fills in
// only what the document left open (hosts in [1, 256], a buffer of at least
// twice the forward flow count, the default RTT), and a sized spec that still
// validates compiles and partitions without error or panic.
func FuzzLoadScenario(f *testing.F) {
	const fwd = `{"scheme":"PERT","count":%d,"from":"left","to":"right"}`
	cell := func(topo, groups, rest string) string {
		return `{"topology":{"template":"dumbbell",` + topo + `},"groups":[` + groups + `]` + rest + `}`
	}
	one := fmt.Sprintf(fwd, 1)
	f.Add(cell(`"bandwidth_bps":1e6,"rtts":["60ms"]`, one, `,"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":30e6,"rtts":["60ms","100ms"],"access_jitter":"2ms"`,
		fmt.Sprintf(fwd, 8)+`,{"scheme":"PERT","count":5,"from":"left","to":"right","traffic":"web"}`,
		`,"duration":"40s","measure_from":"10s"`))
	f.Add(`{"topology":{},"groups":[]}`)
	f.Add(`{"topology":`)
	f.Add(cell(`"bandwidth_bps":-1`, one, `,"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"duration":"-5s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"duration":"10s","measure_until":"8s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"links":[{"link":"forward","schedule":[{"at":"5s","capacity_bps":5e5}]}],"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"links":[{"link":"forward","schedule":[{"at":"15s"}]}],"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, fmt.Sprintf(fwd, -1)+`,{"scheme":"PERT","count":2,"from":"left","to":"right","traffic":"web"}`, `,"duration":"5s"`))
	f.Add(cell(`"bandwidth_bps":1e6,"rtts":["0ms"]`, fmt.Sprintf(fwd, 2), `,"duration":"5s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"links":[{"link":"forward","schedule":[{"at":"5s","down":true},{"at":"6s","up":true}]}],"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"links":[{"link":"forward","schedule":[{"at":"5s","down":true,"up":true}]}],"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"duration":"10s","measure_from":"10s","measure_until":"10s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, one, `,"duration":"10s","measure_until":"12s"`))
	f.Add(cell(`"bandwidth_bps":1e6,"delay":"20ms","rtts":["10ms"]`, one, `,"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":1`, `{"scheme":"PERT","count":1,"from":"left","to":"right[0:0]"}`, `,"duration":"1s"`))
	f.Add(cell(`"bandwidth_bps":1e6`, fmt.Sprintf(fwd, 8), `,"duration":"10s"`))
	f.Add(cell(`"bandwidth_bps":10e6,"hosts":3,"buffer_pkts":7`, fmt.Sprintf(fwd, 6), `,"duration":"5s","shards":2`))

	f.Fuzz(func(t *testing.T, data string) {
		spec, err := scenario.Load(strings.NewReader(data))
		if err != nil || spec.Topology.Template != scenario.DumbbellTemplate || len(spec.Groups) == 0 {
			return
		}
		sized := spec
		sizeDumbbell(&sized)
		was, got := spec.Topology, sized.Topology
		switch {
		case was.Hosts != 0 && got.Hosts != was.Hosts:
			t.Fatalf("sizing overrode the document's %d hosts with %d", was.Hosts, got.Hosts)
		case was.Hosts == 0 && (got.Hosts < 1 || got.Hosts > 256):
			t.Fatalf("sized host count %d outside [1, 256]", got.Hosts)
		case was.BufferPkts != 0 && got.BufferPkts != was.BufferPkts:
			t.Fatalf("sizing overrode the document's %d-packet buffer with %d", was.BufferPkts, got.BufferPkts)
		case was.BufferPkts == 0 && got.BufferPkts < 2*spec.Groups[fwdGroup].Count:
			t.Fatalf("sized buffer %d below twice the %d forward flows", got.BufferPkts, spec.Groups[fwdGroup].Count)
		case len(got.RTTs) == 0:
			t.Fatal("sized cell has no RTTs")
		}
		// An explicit host count is the document's to make; beyond the
		// rule's own ceiling it costs memory without exercising anything new.
		if got.Hosts > 256 || sized.Validate() != nil {
			return
		}
		if _, err := start(sized); err != nil {
			t.Fatalf("a validated, sized cell does not start: %v\n%s", err, data)
		}
	})
}
