package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCollectAnalyzeSaveLoad(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")

	var out1, errb bytes.Buffer
	code := run([]string{"-flows", "4", "-web", "5", "-dur", "15s", "-save", trace}, &out1, &errb)
	if code != 0 {
		t.Fatalf("collect exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out1.String(), "ewma-0.99") {
		t.Fatalf("predictor table missing:\n%s", out1.String())
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Fatalf("trace not saved: %v", err)
	}

	// Re-analysis from the saved trace must reproduce the table exactly.
	var out2 bytes.Buffer
	if code := run([]string{"-load", trace}, &out2, &errb); code != 0 {
		t.Fatalf("load exit %d: %s", code, errb.String())
	}
	if out1.String() != out2.String() {
		t.Fatal("saved-trace analysis differs from original")
	}
}

func TestErrorPaths(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "giant"}, &out, &errb); code != 2 {
		t.Fatalf("bad scale exit = %d", code)
	}
	if code := run([]string{"-load", "/nonexistent.json"}, &out, &errb); code != 1 {
		t.Fatalf("missing trace exit = %d", code)
	}
	if code := run([]string{"-zzz"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
	// -dur at or below the warm-up (10 s quick, 20 s paper) collects no
	// samples, so it is rejected rather than reported as all zeros.
	for _, args := range [][]string{{"-dur", "0s"}, {"-flows", "0"}, {"-web", "-1"},
		{"-flows", "2", "-web", "1", "-dur", "10s"}, {"-scale", "paper", "-dur", "20s"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v exit = %d", args, code)
		}
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if code := run([]string{"-load", bad}, &out, &errb); code != 1 {
		t.Fatalf("corrupt trace exit = %d", code)
	}
}
