package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTrajectoryCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "trajectory", "-dur", "2s", "-every", "500"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "t,window_pkts,queue_delay_s,smoothed_delay_s" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 4 {
		t.Fatalf("only %d lines", len(lines))
	}
	if !strings.Contains(errb.String(), "equilibrium") {
		t.Fatal("no equilibrium summary on stderr")
	}
}

func TestStabilityMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "stability", "-r", "100ms", "-delta", "100us"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "stable=true") {
		t.Fatalf("expected stable at 100 ms:\n%s", s)
	}
	if !strings.Contains(s, "0.170s") && !strings.Contains(s, "0.171s") {
		t.Fatalf("boundary missing:\n%s", s)
	}
}

func TestMinDeltaMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "mindelta", "-c", "1000", "-r", "200ms"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 51 { // header + N=1..50
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestBadModeAndBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-mode", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bad mode exit = %d", code)
	}
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
}

// TestBadParametersExit2: each parameter the integrator or the closed forms
// cannot take is a one-line error and exit 2, never a panic or a NaN column.
func TestBadParametersExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "-1ms"},
		{"-every", "0"},
		{"-c", "0"},
		{"-c", "NaN"},
		{"-n", "-5"},
		{"-r", "0"},
		{"-delta", "0"},
		{"-dur", "-1s"},
		{"-tmin", "100ms", "-tmax", "50ms"},
		{"-mode", "stability", "-tmin", "50ms", "-tmax", "50ms"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stdout %q)", args, code, out.String())
			continue
		}
		if msg := errb.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "pertfluid: ") {
			t.Errorf("%v: want a one-line error, got %q", args, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: rejected run wrote %q", args, out.String())
		}
	}
}

func TestHybridMode(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-mode", "hybrid", "-c", "1e7", "-n", "1e5", "-r", "60ms",
		"-tmin", "5ms", "-tmax", "105ms", "-delta", "100us",
		"-aprate", "120000", "-dur", "20s", "-every", "5000"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "hybrid equilibrium") {
		t.Fatal("no hybrid equilibrium summary on stderr")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "t,window_pkts,queue_delay_s,smoothed_delay_s" {
		t.Fatalf("header = %q", lines[0])
	}
	// The trajectory must settle at the shifted equilibrium W* = (C-ap)R/N
	// = 5.928 pkts: the last emitted window should sit within 1%.
	last := strings.Split(lines[len(lines)-1], ",")
	if !strings.HasPrefix(last[1], "5.9") {
		t.Fatalf("final window %q, want ~5.93", last[1])
	}
}
