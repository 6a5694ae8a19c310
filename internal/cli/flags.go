// Package cli holds the flag blocks shared by the lppa commands, so
// lppa-net and lppa-sim expose the round-shaping knobs under one set of
// names, defaults, and help strings instead of drifting copies.
package cli

import (
	"flag"
	"fmt"
	"time"

	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/faults"
	"lppa/internal/round"
	"lppa/internal/transport"
)

// RoundFlags binds the round-shaping flags both commands understand. The
// struct's field values at Register time are the flag defaults, so each
// command seeds its own defaults (lppa-sim registers Workers at
// GOMAXPROCS, lppa-net leaves it serial) before registering.
type RoundFlags struct {
	// Allocation shape: how one round computes, never what it computes.
	Workers int
	// Density is the named bidder placement ("urban", "rural", "mixed");
	// empty keeps each command's own default population (uniform scatter).
	Density string
	// Degraded-round policy: quorum rounds proceed without the bidders
	// that failed to encode, or (networked) missed the Straggler deadline.
	Quorum int
	// Networked-only knobs (RegisterClient).
	Straggler time.Duration
	Retries   int
	Chaos     string
	ChaosRate float64
}

// Register binds the allocation and degraded-round flags (-workers,
// -quorum, -density) onto fs, using the current field values as defaults.
func (f *RoundFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", f.Workers,
		"goroutines for bidder-side submission encoding (the seeded pipeline); <2 = serial rng driver")
	fs.IntVar(&f.Quorum, "quorum", f.Quorum,
		"minimum usable submissions for a degraded round; 0 requires all bidders")
	fs.StringVar(&f.Density, "density", f.Density,
		"bidder placement: urban|rural|mixed (empty = the command's default uniform scatter)")
}

// Validate rejects flag values that used to fall through to a silent
// default: a negative -workers is a typo, not a request for the serial
// pipeline, and an unknown -density must fail before a long run, not
// place bidders uniformly. Commands call it right after Parse.
func (f *RoundFlags) Validate() error {
	if f.Workers < 0 {
		return fmt.Errorf("cli: -workers %d is negative (0 picks one per CPU, 1 forces serial)", f.Workers)
	}
	if f.Quorum < 0 {
		return fmt.Errorf("cli: -quorum %d is negative (0 requires all bidders)", f.Quorum)
	}
	if f.Straggler < 0 {
		return fmt.Errorf("cli: -straggler %v is negative (0 waits forever)", f.Straggler)
	}
	if f.Retries < 0 {
		return fmt.Errorf("cli: -retries %d is negative", f.Retries)
	}
	if f.ChaosRate < 0 || f.ChaosRate > 1 {
		return fmt.Errorf("cli: -chaos-rate %v outside [0,1]", f.ChaosRate)
	}
	if _, err := f.Mix(); err != nil {
		return err
	}
	return nil
}

// Mix resolves -density to a placement mix; nil with no error when the
// flag was left empty (the command's own default placement applies).
func (f *RoundFlags) Mix() (*dataset.DensityMix, error) {
	if f.Density == "" {
		return nil, nil
	}
	m, err := dataset.ParseDensity(f.Density)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// RegisterClient binds the networked-only flags — the auctioneer's
// collection deadline (-straggler) and the client-side hardening flags
// (-retries, -chaos, -chaos-rate) — onto fs. Separate from Register
// because the in-process simulator has no network leg to wait on or
// harden.
func (f *RoundFlags) RegisterClient(fs *flag.FlagSet) {
	if f.Retries == 0 {
		f.Retries = transport.DefaultRetryPolicy.MaxAttempts
	}
	if f.ChaosRate == 0 {
		f.ChaosRate = 0.5
	}
	fs.DurationVar(&f.Straggler, "straggler", f.Straggler,
		"networked auctioneer's collection deadline; stragglers past it are excluded down to -quorum, 0 waits forever")
	fs.IntVar(&f.Retries, "retries", f.Retries,
		"bidder submission attempts before giving up")
	fs.StringVar(&f.Chaos, "chaos", f.Chaos,
		"chaos soak: inject this fault class (drop|dup|corrupt|truncate|slowloris|crash)")
	fs.Float64Var(&f.ChaosRate, "chaos-rate", f.ChaosRate,
		"per-frame fault probability for the probabilistic chaos classes")
}

// RoundOptions maps the parsed allocation and degraded-round flags onto
// round.Run options. Invalid combinations (a quorum beyond the
// population) are left for round.Run to reject with its own message, so
// the CLI and library agree on what is legal.
func (f *RoundFlags) RoundOptions() []round.Option {
	var opts []round.Option
	if f.Workers > 1 {
		opts = append(opts, round.WithWorkers(f.Workers))
	}
	if f.Quorum > 0 {
		opts = append(opts, round.WithQuorum(f.Quorum))
	}
	return opts
}

// RetryPolicy is the default client retry policy with -retries applied.
func (f *RoundFlags) RetryPolicy() transport.RetryPolicy {
	p := transport.DefaultRetryPolicy
	if f.Retries > 0 {
		p.MaxAttempts = f.Retries
	}
	return p
}

// ChaosConfig maps the -chaos class onto a fault config at the -chaos-rate
// per-frame probability. Empty class disables injection (nil config).
func (f *RoundFlags) ChaosConfig() (*faults.Config, error) {
	switch f.Chaos {
	case "":
		return nil, nil
	case "drop":
		return &faults.Config{DropFrame: f.ChaosRate}, nil
	case "dup":
		return &faults.Config{DupFrame: f.ChaosRate}, nil
	case "corrupt":
		return &faults.Config{CorruptFrame: f.ChaosRate}, nil
	case "truncate":
		return &faults.Config{TruncateFrame: f.ChaosRate}, nil
	case "slowloris":
		return &faults.Config{SlowChunk: 256, SlowPause: 100 * time.Millisecond}, nil
	case "crash":
		return &faults.Config{CloseAfterFrames: 1}, nil
	default:
		return nil, fmt.Errorf("unknown chaos class %q", f.Chaos)
	}
}

// EpochFlags binds the epochal-service flags lppa-net exposes.
type EpochFlags struct {
	Epochs    int
	Interval  time.Duration
	RateLimit float64
}

// Register binds -epochs, -epoch-interval, and -rate-limit onto fs.
func (f *EpochFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Epochs, "epochs", f.Epochs,
		"run this many back-to-back auction epochs through the epochal service (0 = single classic round)")
	fs.DurationVar(&f.Interval, "epoch-interval", f.Interval,
		"auto-seal the collecting epoch on this cadence; 0 seals explicitly per epoch")
	fs.Float64Var(&f.RateLimit, "rate-limit", f.RateLimit,
		"admission-control token rate (submissions/sec, burst = one second of rate); 0 admits everything")
}

// Validate rejects epoch flag values that used to fall through silently.
// It needs the parsed FlagSet to tell an explicit `-rate-limit 0` — which
// would quietly admit everything, the opposite of what a zero budget
// reads as — from the flag simply being left at its default.
func (f *EpochFlags) Validate(fs *flag.FlagSet) error {
	if f.Epochs < 0 {
		return fmt.Errorf("cli: -epochs %d is negative (0 runs a single classic round)", f.Epochs)
	}
	if f.Interval < 0 {
		return fmt.Errorf("cli: -epoch-interval %v is negative (0 seals explicitly)", f.Interval)
	}
	if f.RateLimit < 0 {
		return fmt.Errorf("cli: -rate-limit %v is negative (omit the flag to admit everything)", f.RateLimit)
	}
	if f.RateLimit == 0 && fs != nil {
		explicit := false
		fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "rate-limit" {
				explicit = true
			}
		})
		if explicit {
			return fmt.Errorf("cli: -rate-limit 0 would admit everything, not nothing; omit the flag to disable admission control")
		}
	}
	return nil
}

// AdmissionConfig maps -rate-limit onto the epoch gate: the rate is the
// sustained budget and the burst one second of it (at least one token so a
// tiny rate still admits something).
func (f *EpochFlags) AdmissionConfig() epoch.AdmissionConfig {
	if f.RateLimit <= 0 {
		return epoch.AdmissionConfig{}
	}
	burst := f.RateLimit
	if burst < 1 {
		burst = 1
	}
	return epoch.AdmissionConfig{Rate: f.RateLimit, Burst: burst}
}
