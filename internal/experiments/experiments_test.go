package experiments

import (
	"context"
	"strings"
	"testing"

	"pert/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	// Every evaluation artifact in the paper must be registered.
	want := []string{"section2", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig11", "fig12", "fig13", "fig14", "table1",
		"ext-aqm", "ext-validation", "ext-jitter", "ext-delaycc", "ext-highspeed", "ext-hybrid", "ext-coexist", "ext-fct", "ext-stability", "ext-replicated",
		"ext-lossy", "ext-flap", "ext-parkinglot-xl"}
	for _, id := range want {
		exp, ok := ByID(id)
		if !ok || exp.Run == nil {
			t.Errorf("experiment %q not registered", id)
		}
		if ok && exp.Title == "" {
			t.Errorf("experiment %q has no title", id)
		}
	}
	if len(Experiments) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Experiments), len(want))
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Experiments) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(Experiments))
	}
	if ids[0] != "section2" || ids[len(ids)-1] != "table1" {
		t.Fatalf("ordering: %v", ids)
	}
	// fig11 must come after fig9 (numeric, not lexicographic).
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if pos["fig11"] < pos["fig9"] {
		t.Fatalf("numeric ordering broken: %v", ids)
	}
}

func TestScaleValid(t *testing.T) {
	if !Quick.Valid() || !Paper.Valid() {
		t.Fatal("standard scales invalid")
	}
	if Scale("bogus").Valid() {
		t.Fatal("bogus scale accepted")
	}
}

func TestScaleWindows(t *testing.T) {
	dur, from, until, sw := Paper.window()
	if dur != seconds(400) || from != seconds(100) || until != seconds(300) || sw != seconds(50) {
		t.Fatalf("paper window: %v %v %v %v", dur, from, until, sw)
	}
	dur, from, until, _ = Quick.window()
	if from >= until || until > dur {
		t.Fatalf("quick window inconsistent: %v %v %v", dur, from, until)
	}
	// Quick still measures hundreds of 60 ms RTTs.
	if (until - from) < 300*60*sim.Millisecond {
		t.Fatalf("quick window too short: %v", until-from)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "long_header", "c"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("1", "2", "3")
	tab.AddRow("wide-cell", "x", "y")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== t: demo ==", "long_header", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and separator align with the widest cell.
	if len(lines) < 5 {
		t.Fatalf("lines: %v", lines)
	}
}

func TestFormatters(t *testing.T) {
	if f3(0.12345) != "0.123" || f2(1.567) != "1.57" {
		t.Fatal("float formatters wrong")
	}
	if sci(0) != "0" {
		t.Fatalf("sci(0) = %q", sci(0))
	}
	if got := sci(3.98e-6); got != "3.98E-06" {
		t.Fatalf("sci = %q", got)
	}
	if pct(0.935) != "93.50" {
		t.Fatalf("pct = %q", pct(0.935))
	}
}

func TestFig5CurveTable(t *testing.T) {
	tab, err := Fig5(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Spot-check the three regions: 0 below Tmin, Pmax at Tmax, 1 beyond.
	byDelay := map[string]string{}
	for _, r := range tab.Rows {
		byDelay[r[0]] = r[1]
	}
	if byDelay["2.50"] != "0.000" {
		t.Fatalf("p(2.5ms) = %s", byDelay["2.50"])
	}
	if byDelay["10.00"] != "0.050" {
		t.Fatalf("p(10ms) = %s", byDelay["10.00"])
	}
	if byDelay["25.00"] != "1.000" {
		t.Fatalf("p(25ms) = %s", byDelay["25.00"])
	}
}

func TestFig13Tables(t *testing.T) {
	ctx := context.Background()
	a, err := Fig13a(ctx, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 8 {
		t.Fatalf("fig13a rows = %d", len(a.Rows))
	}
	bcd, err := Fig13bcd(ctx, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(bcd.Rows) != 4 {
		t.Fatalf("fig13bcd rows = %d", len(bcd.Rows))
	}
	// The verdict column must flip from stable to oscillating across the
	// 171 ms boundary.
	verdicts := map[string]string{}
	for _, r := range bcd.Rows {
		verdicts[r[0]] = r[len(r)-1]
	}
	if verdicts["100"] != "stable" || verdicts["160"] != "stable" {
		t.Fatalf("pre-boundary verdicts: %v", verdicts)
	}
	if verdicts["171"] != "oscillating" || verdicts["190"] != "oscillating" {
		t.Fatalf("post-boundary verdicts: %v", verdicts)
	}
}

func TestSchemeFactoriesCoverAll(t *testing.T) {
	for _, s := range []Scheme{PERT, SackDroptail, SackRED, Vegas, PERTPI, SackPI} {
		spec := quickSpec(50)
		spec.Duration = seconds(5)
		spec.MeasureFrom = seconds(1)
		spec.MeasureUntil = seconds(5)
		r := runScheme(spec, s) // must not panic and must move traffic
		if r.Utilization <= 0 {
			t.Errorf("%s: no traffic", s)
		}
	}
}

func TestSchemeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheme did not panic")
		}
	}()
	runScheme(quickSpec(51), Scheme("nonsense"))
}

func TestAblationRunner(t *testing.T) {
	v := DefaultVariant("test")
	r := RunAblation(v, 52)
	if r.Utilization < 0.5 {
		t.Fatalf("ablation utilization = %v", r.Utilization)
	}
	if !strings.Contains(string(r.Scheme), "test") {
		t.Fatalf("scheme label = %q", r.Scheme)
	}
}

func TestRunDumbbellDeterministic(t *testing.T) {
	a := runScheme(quickSpec(60), PERT)
	b := runScheme(quickSpec(60), PERT)
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}
