package cli

import (
	"flag"
	"io"
	"testing"
	"time"

	"lppa/internal/epoch"
	"lppa/internal/transport"
)

func parse(t *testing.T, reg func(*flag.FlagSet), args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	reg(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestRoundFlagsDefaultsAreFieldValues(t *testing.T) {
	f := RoundFlags{Workers: 8, Quorum: 3}
	parse(t, f.Register)
	if f.Workers != 8 || f.Quorum != 3 || f.Straggler != 0 {
		t.Errorf("defaults not preserved: %+v", f)
	}
}

func TestRoundFlagsParseAndOptions(t *testing.T) {
	var f RoundFlags
	parse(t, func(fs *flag.FlagSet) {
		f.Register(fs)
		f.RegisterClient(fs)
	}, "-workers", "4", "-quorum", "2", "-straggler", "5s")
	if f.Workers != 4 || f.Quorum != 2 || f.Straggler != 5*time.Second {
		t.Fatalf("parsed flags: %+v", f)
	}
	// Every set in-process knob contributes exactly one round option; the
	// networked-only -straggler contributes none.
	if got := len(f.RoundOptions()); got != 2 {
		t.Errorf("RoundOptions() = %d options, want 2", got)
	}
	if got := len((&RoundFlags{}).RoundOptions()); got != 0 {
		t.Errorf("zero flags = %d options, want 0", got)
	}
}

func TestRoundFlagsRetryPolicy(t *testing.T) {
	var f RoundFlags
	parse(t, f.RegisterClient, "-retries", "7")
	if p := f.RetryPolicy(); p.MaxAttempts != 7 || p.BaseDelay != transport.DefaultRetryPolicy.BaseDelay {
		t.Errorf("retry policy = %+v", p)
	}
	// Unset retries keeps the transport default.
	var g RoundFlags
	parse(t, g.RegisterClient)
	if p := g.RetryPolicy(); p != transport.DefaultRetryPolicy {
		t.Errorf("default retry policy = %+v", p)
	}
}

func TestRoundFlagsChaosConfig(t *testing.T) {
	var f RoundFlags
	parse(t, f.RegisterClient, "-chaos", "drop", "-chaos-rate", "0.25")
	cfg, err := f.ChaosConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg == nil || cfg.DropFrame != 0.25 {
		t.Errorf("chaos config = %+v", cfg)
	}

	var quiet RoundFlags
	parse(t, quiet.RegisterClient)
	if cfg, err := quiet.ChaosConfig(); err != nil || cfg != nil {
		t.Errorf("no -chaos: cfg=%+v err=%v, want nil/nil", cfg, err)
	}

	bad := RoundFlags{Chaos: "meteor"}
	if _, err := bad.ChaosConfig(); err == nil {
		t.Error("unknown chaos class accepted")
	}

	for _, class := range []string{"drop", "dup", "corrupt", "truncate", "slowloris", "crash"} {
		f := RoundFlags{Chaos: class, ChaosRate: 0.5}
		if cfg, err := f.ChaosConfig(); err != nil || cfg == nil {
			t.Errorf("class %q: cfg=%v err=%v", class, cfg, err)
		}
	}
}

// TestRoundFlagsValidate pins that the values which used to slip through
// to a silent default — a negative -workers, an unknown -density —
// now come back as errors from Validate.
func TestRoundFlagsValidate(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"explicit-good", []string{"-workers", "4", "-density", "mixed"}, true},
		{"workers-zero-is-auto", []string{"-workers", "0"}, true},
		{"negative-workers", []string{"-workers", "-3"}, false},
		{"negative-quorum", []string{"-quorum", "-2"}, false},
		{"bad-density", []string{"-density", "metropolis"}, false},
		{"density-urban", []string{"-density", "urban"}, true},
		{"density-rural", []string{"-density", "rural"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f RoundFlags
			parse(t, f.Register, tc.args...)
			err := f.Validate()
			if tc.ok && err != nil {
				t.Fatalf("args %v: unexpected error %v", tc.args, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("args %v: accepted, want error", tc.args)
			}
		})
	}
	// Networked-only knobs validate through the same call.
	clientCases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"negative-straggler", []string{"-straggler", "-5s"}, false},
		{"negative-retries", []string{"-retries", "-1"}, false},
		{"chaos-rate-over-one", []string{"-chaos-rate", "1.5"}, false},
		{"chaos-rate-negative", []string{"-chaos-rate", "-0.5"}, false},
		{"chaos-rate-good", []string{"-chaos-rate", "0.25"}, true},
	}
	for _, tc := range clientCases {
		t.Run(tc.name, func(t *testing.T) {
			var f RoundFlags
			parse(t, f.RegisterClient, tc.args...)
			err := f.Validate()
			if tc.ok && err != nil {
				t.Fatalf("args %v: unexpected error %v", tc.args, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("args %v: accepted, want error", tc.args)
			}
		})
	}
}

func TestRoundFlagsMix(t *testing.T) {
	var empty RoundFlags
	if m, err := empty.Mix(); err != nil || m != nil {
		t.Fatalf("empty density: mix=%v err=%v, want nil/nil", m, err)
	}
	f := RoundFlags{Density: "urban"}
	m, err := f.Mix()
	if err != nil || m == nil || m.Name != "urban" {
		t.Fatalf("urban density: mix=%v err=%v", m, err)
	}
}

// TestEpochFlagsValidate pins the -rate-limit contract: an explicit zero
// errors (it would silently admit everything), an implicit zero — the
// default — stays legal, negatives always error.
func TestEpochFlagsValidate(t *testing.T) {
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"good", []string{"-epochs", "3", "-rate-limit", "100"}, true},
		{"explicit-zero-rate-limit", []string{"-rate-limit", "0"}, false},
		{"negative-rate-limit", []string{"-rate-limit", "-5"}, false},
		{"negative-epochs", []string{"-epochs", "-1"}, false},
		{"negative-interval", []string{"-epoch-interval", "-10ms"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f EpochFlags
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := f.Validate(fs)
			if tc.ok && err != nil {
				t.Fatalf("args %v: unexpected error %v", tc.args, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("args %v: accepted, want error", tc.args)
			}
		})
	}
	// A nil FlagSet still validates the always-illegal shapes.
	if err := (&EpochFlags{RateLimit: -1}).Validate(nil); err == nil {
		t.Error("negative rate-limit with nil FlagSet accepted")
	}
	if err := (&EpochFlags{}).Validate(nil); err != nil {
		t.Errorf("zero-value flags with nil FlagSet rejected: %v", err)
	}
}

func TestEpochFlags(t *testing.T) {
	var f EpochFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse([]string{"-epochs", "5", "-epoch-interval", "20ms", "-rate-limit", "200"}); err != nil {
		t.Fatal(err)
	}
	if f.Epochs != 5 || f.Interval != 20*time.Millisecond || f.RateLimit != 200 {
		t.Fatalf("parsed epoch flags: %+v", f)
	}
	ac := f.AdmissionConfig()
	if ac.Rate != 200 || ac.Burst != 200 {
		t.Errorf("admission config = %+v", ac)
	}
	// Tiny rates still get a usable burst; zero disables the gate.
	if ac := (&EpochFlags{RateLimit: 0.1}).AdmissionConfig(); ac.Burst != 1 {
		t.Errorf("tiny-rate burst = %v, want 1", ac.Burst)
	}
	if ac := (&EpochFlags{}).AdmissionConfig(); ac != (epoch.AdmissionConfig{}) {
		t.Errorf("zero rate-limit config = %+v", ac)
	}
}
