package transport

import (
	"fmt"
	"log/slog"
	"time"

	"lppa/internal/obs"
)

// Option tunes a server Config, mirroring round.Run's option style so
// the two configuration surfaces read the same way. Options compose;
// invalid values are rejected by New instead of surfacing later as a
// misbehaving server.
type Option func(*Config) error

// New assembles a validated Config from options — the preferred
// construction path. The zero-option call is the zero Config (working
// defaults). Literal Config construction remains supported as a
// deprecated shim for existing callers.
func New(opts ...Option) (Config, error) {
	var cfg Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// WithIdleTimeout bounds the wait for each next frame on accepted
// connections.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *Config) error {
		if d <= 0 {
			return fmt.Errorf("transport: idle timeout %v, need positive", d)
		}
		c.IdleTimeout = d
		return nil
	}
}

// WithFrameTimeout bounds reading one frame's body after its header
// arrives (the slow-loris budget).
func WithFrameTimeout(d time.Duration) Option {
	return func(c *Config) error {
		if d <= 0 {
			return fmt.Errorf("transport: frame timeout %v, need positive", d)
		}
		c.FrameTimeout = d
		return nil
	}
}

// WithLogger routes server-side errors to log.
func WithLogger(log *slog.Logger) Option {
	return func(c *Config) error {
		c.Logger = log
		return nil
	}
}

// WithTelemetry reports the server through tel (see Config.Telemetry).
// A Flight without a Tracer is rejected, as round.WithTelemetry does.
func WithTelemetry(tel obs.Telemetry) Option {
	return func(c *Config) error {
		if err := tel.Validate(); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
		c.Telemetry = tel
		return nil
	}
}

// WithSecondPriceCharging switches the auctioneer to clearing-price
// charging.
func WithSecondPriceCharging() Option {
	return func(c *Config) error {
		c.SecondPrice = true
		return nil
	}
}

// WithQuorum lets a straggler-bounded round degrade to q submissions
// instead of failing (see Config.Quorum).
func WithQuorum(q int) Option {
	return func(c *Config) error {
		if q < 1 {
			return fmt.Errorf("transport: quorum %d, need at least 1", q)
		}
		c.Quorum = q
		return nil
	}
}

// WithStragglerTimeout bounds the auctioneer's collection phase.
func WithStragglerTimeout(d time.Duration) Option {
	return func(c *Config) error {
		if d <= 0 {
			return fmt.Errorf("transport: straggler timeout %v, need positive", d)
		}
		c.StragglerTimeout = d
		return nil
	}
}

// WithAdmission gates every accepted connection through admit before any
// frame is read: a false verdict answers with one KindRetryAfter frame
// carrying the hint and closes the connection. Pass an
// epoch.Admission's AdmitConn to shed over-rate traffic pre-decode.
func WithAdmission(admit func() (ok bool, retryAfter time.Duration)) Option {
	return func(c *Config) error {
		if admit == nil {
			return fmt.Errorf("transport: WithAdmission requires a non-nil gate")
		}
		c.Admit = admit
		return nil
	}
}

// WithShedNotify calls fn once per connection the admission gate turned
// away, with the retry-after hint the peer was sent. The ops plane wires
// its admission_shed event stream here; without WithAdmission the hook
// never fires.
func WithShedNotify(fn func(retryAfter time.Duration)) Option {
	return func(c *Config) error {
		if fn == nil {
			return fmt.Errorf("transport: WithShedNotify requires a non-nil hook")
		}
		c.OnShed = fn
		return nil
	}
}
