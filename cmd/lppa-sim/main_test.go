package main

import (
	"path/filepath"
	"testing"
)

// The CLI is exercised end-to-end in tiny+quick mode: every experiment
// must run to completion on a CI-sized dataset.
func TestRunEveryExperimentTiny(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "ds.gob")
	for _, exp := range []string{"coverage", "fig4a", "fig4c", "fig5ad", "fig5ef", "multiround", "basicleak", "pricing", "theorems", "all"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			args := []string{
				"-experiment", exp, "-tiny", "-quick", "-cache", cache,
				"-victims", "6", "-n", "8", "-bidders", "8", "-channels", "8",
			}
			if err := run(args); err != nil {
				t.Fatalf("experiment %s: %v", exp, err)
			}
		})
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope", "-tiny"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-experiment"}); err == nil {
		t.Fatal("dangling flag accepted")
	}
	if err := run([]string{"-experiment", "fig5ef", "-tiny", "-bidders", "abc"}); err == nil {
		t.Fatal("unparseable population list accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("100, 200,300")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[2] != 300 {
		t.Errorf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("bad int accepted")
	}
}
