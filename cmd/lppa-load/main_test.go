package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lppa/internal/load"
)

// runSnapshot runs the harness CLI end to end into a temp report file and
// returns the decoded report.
func runSnapshot(t *testing.T, path string, extra ...string) *load.Report {
	t.Helper()
	args := append([]string{"run", "-n", "40", "-rounds", "2", "-workers", "2",
		"-variants", "interned,service", "-seed", "7", "-o", path}, extra...)
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := load.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunEmitsGatedReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "LOAD_test.json")
	rep := runSnapshot(t, path)
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d, want interned + service", len(rep.Runs))
	}
	if rep.Run("interned/mixed/n40") == nil || rep.Run("service/mixed/n40") == nil {
		t.Fatalf("run names: %q, %q", rep.Runs[0].Name, rep.Runs[1].Name)
	}
	if rep.SLO == nil || len(rep.SLO.MinRoundsPerSec) == 0 {
		t.Fatal("emitted report has no SLO block")
	}
	for _, run := range rep.Runs {
		if run.RoundsPerSec <= 0 || run.AwardDigest == "" {
			t.Errorf("%s: degenerate run %+v", run.Name, run)
		}
	}
	// The emitted snapshot gates itself clean.
	var buf bytes.Buffer
	if err := run([]string{"compare", path, path}, &buf); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "passed") {
		t.Errorf("compare output: %q", buf.String())
	}
}

func TestCompareFailsOnViolation(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	rep := runSnapshot(t, baseline)

	// Forge a candidate whose throughput collapsed below every floor.
	for i := range rep.Runs {
		rep.Runs[i].RoundsPerSec = rep.Runs[i].RoundsPerSec / 1e6
	}
	rep.SLO = nil
	candidate := filepath.Join(dir, "candidate.json")
	f, err := os.Create(candidate)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run([]string{"compare", baseline, candidate}, &buf); err == nil {
		t.Fatalf("regressed candidate passed the gate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "SLO VIOLATION") {
		t.Errorf("compare output: %q", buf.String())
	}

	// Missing baseline: error, never a pass (fail closed).
	if err := run([]string{"compare", filepath.Join(dir, "missing.json"), candidate}, &buf); err == nil {
		t.Error("missing baseline passed the gate")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"run", "-n", "0"},
		{"run", "-n", "ten"},
		{"run", "-rounds", "0"},
		{"run", "-workers", "-2"},
		{"run", "-density", "metropolis"},
		{"run", "-variants", "warp"},
		{"run", "-chaos", "slowloris"}, // no in-process equivalent
		{"run", "stray-arg"},
		{"compare", "only-one.json"},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestRunChaosAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "LOAD_chaos.json")
	rep := runSnapshot(t, path, "-chaos", "drop", "-chaos-rate", "0.1", "-rate-limit", "10")
	for _, run := range rep.Runs {
		if run.Dropped == 0 {
			t.Errorf("%s: drop chaos at 10%% dropped nothing", run.Name)
		}
	}
	if svc := rep.Run("service/mixed/n40"); svc == nil || svc.Shed == 0 {
		t.Errorf("service run shed nothing under -rate-limit 10: %+v", svc)
	}
}
