package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestDemoRound(t *testing.T) {
	args := []string{"-role", "demo", "-bidders", "5", "-channels", "4", "-domain", "30"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownRoleRejected(t *testing.T) {
	if err := run([]string{"-role", "wizard"}); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func TestRoleFlagValidation(t *testing.T) {
	if err := run([]string{"-role", "auctioneer", "-channels", "4"}); err == nil {
		t.Fatal("auctioneer without -ttp accepted")
	}
	if err := run([]string{"-role", "bidder", "-channels", "4"}); err == nil {
		t.Fatal("bidder without addresses accepted")
	}
	if err := run([]string{"-role", "demo", "-channels", "0"}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestParseBids(t *testing.T) {
	got, err := parseBids("1, 0,42", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 || got[2] != 42 {
		t.Errorf("parseBids = %v", got)
	}
	if _, err := parseBids("1,2", 3); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := parseBids("", 1); err == nil {
		t.Error("empty accepted")
	}
	if _, err := parseBids("x", 1); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestDemoRoundSecondPrice(t *testing.T) {
	args := []string{"-role", "demo", "-bidders", "5", "-channels", "4", "-domain", "30", "-pricing", "second"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPricingRejected(t *testing.T) {
	if err := run([]string{"-role", "demo", "-pricing", "third"}); err == nil {
		t.Fatal("unknown pricing accepted")
	}
}

// traceEvents reads a Chrome trace_event file and returns the names of
// its events.
func traceEvents(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	names := make([]string, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		names[i] = ev.Name
	}
	return names
}

// TestEpochDemoTraceOut pins -trace-out in epoch mode: the file is
// written after the drain and holds one round span per traced epoch,
// whether every epoch is traced or a 1-in-1 sampler picks them.
func TestEpochDemoTraceOut(t *testing.T) {
	for _, sample := range []string{"0", "1"} {
		out := filepath.Join(t.TempDir(), "t.json")
		args := []string{"-epochs", "2", "-bidders", "8", "-seed", "7", "-trace-sample", sample, "-trace-out", out}
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for _, name := range traceEvents(t, out) {
			if name == "round" {
				rounds++
			}
		}
		if rounds != 2 {
			t.Errorf("-trace-sample %s: %d round spans in %s, want 2 (one per epoch)", sample, rounds, out)
		}
	}
}

// TestEpochDemoFlightDumpHoldsTrace pins -flight-dir without -trace-sample
// in epoch mode: an SLO breach forces a dump, and the dump carries the
// traced epochs rather than an empty ring.
func TestEpochDemoFlightDumpHoldsTrace(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-epochs", "3", "-bidders", "8", "-seed", "7",
		"-slo", "allocate=1ns", "-slo-fast-window", "2", "-slo-slow-window", "4", "-flight-dir", dir}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-e*-slo_breach.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Fatalf("no SLO-breach flight dump in %s", dir)
	}
	for _, d := range dumps {
		if n := len(traceEvents(t, d)); n == 0 {
			t.Errorf("%s holds 0 trace events", filepath.Base(d))
		}
	}
}
