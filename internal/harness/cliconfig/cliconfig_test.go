package cliconfig

import (
	"flag"
	"io"
	"testing"
	"time"

	"pert/internal/harness"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestSharedFlagsCompileToSpec(t *testing.T) {
	fs := newFS()
	b := New(fs)
	b.ScaleFlag()
	b.ExpFlag()
	b.MetricsDirFlag()
	b.SeedFlag(0)
	err := fs.Parse([]string{
		"-scale", "paper", "-exp", "fig5, fig13", "-parallel", "4",
		"-timeout", "2m", "-stall-window", "30s", "-seed", "9",
		"-metrics", "mdir", "-metrics-interval", "250ms",
		"-cache-dir", "cdir", "-isolate", "-retries", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := harness.RunSpec{
		Experiments:     []string{"fig5", "fig13"},
		Scale:           "paper",
		Seed:            9,
		MetricsInterval: 250 * time.Millisecond,
		Workers:         4,
		Timeout:         2 * time.Minute,
		StallWindow:     30 * time.Second,
		MetricsDir:      "mdir",
		Cache:           harness.CachePolicy{Dir: "cdir"},
		Isolate:         true,
		Retries:         2,
	}
	if spec.Scale != want.Scale || spec.Seed != want.Seed || spec.Workers != want.Workers ||
		spec.Timeout != want.Timeout || spec.StallWindow != want.StallWindow ||
		spec.MetricsDir != want.MetricsDir || spec.MetricsInterval != want.MetricsInterval ||
		spec.Cache != want.Cache || spec.Isolate != want.Isolate || spec.Retries != want.Retries {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if len(spec.Experiments) != 2 || spec.Experiments[0] != "fig5" || spec.Experiments[1] != "fig13" {
		t.Fatalf("experiments = %v (whitespace not trimmed?)", spec.Experiments)
	}
	if !b.CacheRequested() {
		t.Fatal("CacheRequested = false")
	}
	if b.Seed() != 9 {
		t.Fatalf("Seed() = %d", b.Seed())
	}
}

func TestDefaultsAndAllExpansion(t *testing.T) {
	fs := newFS()
	b := New(fs)
	b.ScaleFlag()
	b.ExpFlag()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	spec, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiments != nil {
		t.Fatalf("-exp all must leave Experiments nil (whole registry), got %v", spec.Experiments)
	}
	if spec.Scale != "quick" || spec.Workers != 0 || spec.Cache.Dir != "" {
		t.Fatalf("defaults: %+v", spec)
	}
	if b.CacheRequested() {
		t.Fatal("CacheRequested without -cache-dir")
	}
	if b.Seed() != 0 {
		t.Fatalf("Seed() without SeedFlag = %d", b.Seed())
	}
}

func TestSpecValidates(t *testing.T) {
	fs := newFS()
	b := New(fs)
	b.ScaleFlag()
	if err := fs.Parse([]string{"-scale", "huge"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Spec(); err == nil {
		t.Fatal("bad scale accepted")
	}

	for _, args := range [][]string{
		{"-parallel", "-1"}, {"-retries", "-1"},
		{"-timeout", "-1s"}, {"-stall-window", "-5s"}, {"-metrics-interval", "-1s"},
	} {
		fs = newFS()
		b = New(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Spec(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
