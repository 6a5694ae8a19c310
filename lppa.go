// Package lppa is a Go implementation of LPPA — the Location Privacy
// Preserving Dynamic Spectrum Auction of Liu et al. (ICDCS 2013) — together
// with the substrate it is evaluated on: an FCC-style TV-band coverage
// simulator, truthful secondary-user bid models, the BCM and BPM
// location-inference attacks, and a networked deployment of the three
// protocol parties (bidders, auctioneer, TTP).
//
// # Quick start
//
// Generate a dataset, place bidders, and run one private auction round:
//
//	ds, _ := lppa.GenerateLA(42)
//	area := ds.Areas[2]
//	sc, _ := lppa.NewScenario(area, 32, 2)
//	pop, _ := lppa.NewPopulation(area, 50, lppa.DefaultBidConfig(), rng)
//	ring, _ := lppa.DeriveKeyRing([]byte("round-1"), sc.Params.Channels, 5, 8)
//	res, _ := lppa.Run(sc.Params, ring, lppa.RoundInput{
//	    Points: lppa.Points(pop),
//	    Bids:   sc.TruncatedBids(pop),
//	    Policy: lppa.DisguisePolicy{P0: 0.7, Decay: 0.95},
//	    Rng:    rng,
//	})
//
// Run is the one in-process round entry point. Its auctioneer half is the
// key-free round.Auction, which the networked auctioneer runs too, and the
// auctioneer has one execution path (DESIGN.md §5g). Functional options
// shape the rest: WithWorkers for the goroutines a round fans out over,
// WithPolicies for per-bidder disguise, WithSecondPrice /
// WithInteractiveCharging for the alternative charging rules, WithQuorum
// for graceful degradation, and WithTelemetry to report phase timings,
// protocol counters, span trees and flight recordings through one
// Telemetry value (see DESIGN.md §5c and §5e).
//
// See examples/ for complete programs and cmd/lppa-sim for the paper's
// full evaluation suite.
//
// # Architecture
//
// The package is a facade over focused internal packages:
//
//   - internal/prefix, internal/mask — prefix membership verification and
//     its keyed masking (the cryptographic heart of PPBS);
//   - internal/geo, internal/radio, internal/dataset — grid geometry, RF
//     propagation, and the synthetic Los Angeles coverage maps;
//   - internal/bidder — secondary users and truthful bid vectors;
//   - internal/core — the LPPA protocol proper (submissions, auctioneer,
//     order-preserving comparisons);
//   - internal/ttp — the trusted third party;
//   - internal/auction, internal/conflict — Algorithm 3 and the
//     interference graph;
//   - internal/attack, internal/privacy — BCM/BPM and privacy metrics;
//   - internal/round, internal/transport — in-process and TCP round
//     orchestration;
//   - internal/theory, internal/sim — the paper's theorems and the
//     experiment harness.
package lppa

import (
	"io"
	"math/rand"
	"time"

	"lppa/internal/attack"
	"lppa/internal/auction"
	"lppa/internal/bidder"
	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/faults"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/obs/audit"
	"lppa/internal/privacy"
	"lppa/internal/round"
	"lppa/internal/sim"
	"lppa/internal/theory"
	"lppa/internal/transport"
	"lppa/internal/ttp"
)

// Geometry and dataset types.
type (
	// Grid is the cell partition of an evaluation region.
	Grid = geo.Grid
	// Cell addresses one grid cell (row, column).
	Cell = geo.Cell
	// Point is a protocol coordinate pair.
	Point = geo.Point
	// CellSet is a set of grid cells (coverage maps, attack outputs).
	CellSet = geo.CellSet
	// Dataset is the four-area evaluation dataset.
	Dataset = dataset.Dataset
	// Area is one 75 km × 75 km evaluation region.
	Area = dataset.Area
	// DatasetConfig controls dataset generation.
	DatasetConfig = dataset.Config
	// AreaProfile parameterizes one area's RF character.
	AreaProfile = dataset.AreaProfile
)

// Bidder-side types.
type (
	// SU is a secondary user.
	SU = bidder.SU
	// BidConfig controls valuation and bid quantization.
	BidConfig = bidder.Config
	// Population couples SUs with their bid vectors.
	Population = bidder.Population
)

// Protocol types.
type (
	// Params are the public protocol parameters of one auction round.
	Params = core.Params
	// DisguisePolicy is a bidder's zero-disguise distribution.
	DisguisePolicy = core.DisguisePolicy
	// KeyRing is the TTP-escrowed secret material.
	KeyRing = mask.KeyRing
	// LocationSubmission is a masked location.
	LocationSubmission = core.LocationSubmission
	// BidSubmission is a masked bid vector.
	BidSubmission = core.BidSubmission
	// Auctioneer is the untrusted auction runner.
	Auctioneer = core.Auctioneer
	// TTP is the trusted third party.
	TTP = ttp.TTP
	// Assignment is one awarded (bidder, channel) pair.
	Assignment = auction.Assignment
	// Outcome summarizes an auction round.
	Outcome = auction.Outcome
	// RoundResult is the outcome of an in-process private round.
	RoundResult = round.Result
	// RoundInput bundles one round's bidders for Run.
	RoundInput = round.Input
	// RunOption configures Run (WithWorkers, WithSecondPrice, ...).
	RunOption = round.Option
	// Series runs consecutive auctions with batched TTP charging.
	Series = round.Series
	// Batcher schedules multi-auction TTP settlement windows.
	Batcher = round.Batcher
)

// Observability types.
type (
	// Registry collects the counters, gauges, and phase-timing histograms
	// every instrumented layer records into; export with its WriteJSON /
	// WritePrometheus methods or serve its Handler over HTTP. See
	// DESIGN.md §5c.
	Registry = obs.Registry
	// Tracer buffers distributed round spans; hand one to WithTelemetry, a
	// TransportConfig's Telemetry, or a BidderClient and export with
	// WriteChromeTrace. See DESIGN.md §5e.
	Tracer = obs.Tracer
	// Span is one timed operation in a round trace.
	Span = obs.Span
	// FlightRecorder ring-buffers round traces and auto-dumps them on
	// failure, quorum degradation, or an SLO breach.
	FlightRecorder = obs.FlightRecorder
	// Telemetry bundles what a round reports through: a Registry, a
	// Tracer, a FlightRecorder (which needs the Tracer) and a per-phase
	// callback. The zero value reports nothing. See DESIGN.md §5c.
	Telemetry = obs.Telemetry
	// AuditReport is the per-round privacy-leakage audit (AUDIT_ROUND.json).
	AuditReport = audit.Report
	// AuditOptions configures AuditRound (attacker model, coverage area,
	// metrics fold-in).
	AuditOptions = audit.Options
	// BidderAudit is one bidder's leakage tally inside an AuditReport.
	BidderAudit = audit.BidderAudit
)

// Attack and metric types.
type (
	// BPMConfig tunes the Bid-Price Mining attack.
	BPMConfig = attack.BPMConfig
	// BPMResult is a BPM attack outcome.
	BPMResult = attack.BPMResult
	// CardinalityTable inverts basic-scheme range-set sizes to bids.
	CardinalityTable = attack.CardinalityTable
	// PrivacyReport holds per-victim privacy metrics.
	PrivacyReport = privacy.Report
	// PrivacyAggregate averages reports across victims.
	PrivacyAggregate = privacy.Aggregate
)

// Networked deployment types.
type (
	// TTPServer serves the TTP over a listener.
	TTPServer = transport.TTPServer
	// AuctioneerServer runs one networked auction round.
	AuctioneerServer = transport.AuctioneerServer
	// BidderClient participates in a networked round.
	BidderClient = transport.BidderClient
	// Result is a bidder's networked round result.
	Result = transport.Result
	// RetryPolicy shapes the bidder client's backoff (DESIGN.md §5d).
	RetryPolicy = transport.RetryPolicy
	// RoundOutcome summarizes a networked round on the auctioneer side,
	// including bidders excluded from a degraded quorum round.
	RoundOutcome = transport.RoundOutcome
	// TransportConfig carries the servers' operational knobs (timeouts,
	// quorum, telemetry, charging rule).
	TransportConfig = transport.Config
	// FaultConfig selects the deterministic fault classes a chaos-injected
	// connection exhibits (internal/faults; DESIGN.md §5d).
	FaultConfig = faults.Config
	// FaultInjector hands out seeded fault-injected connections.
	FaultInjector = faults.Injector
)

// NewFaultInjector creates a fault injector whose connection schedules all
// derive from seed, so any chaos failure replays exactly.
func NewFaultInjector(seed int64, cfg FaultConfig) *FaultInjector {
	return faults.NewInjector(seed, cfg)
}

// Experiment harness types.
type (
	// Scenario bundles an area with derived protocol parameters.
	Scenario = sim.Scenario
	// Table is a rendered experiment result.
	Table = sim.Table
	// MultiRoundConfig drives the repeated-participation experiment.
	MultiRoundConfig = sim.MultiRoundConfig
	// MultiRoundPoint is the attack state after a number of rounds.
	MultiRoundPoint = sim.MultiRoundPoint
)

// DefaultGrid returns the paper's geometry: 100×100 cells over 75 km.
func DefaultGrid() Grid { return geo.DefaultGrid() }

// GenerateLA synthesizes the four-area, 129-channel evaluation dataset.
func GenerateLA(seed int64) (*Dataset, error) { return dataset.GenerateLA(seed) }

// GenerateDataset synthesizes a dataset with custom geometry/profiles.
func GenerateDataset(cfg DatasetConfig, seed int64) (*Dataset, error) {
	return dataset.Generate(cfg, seed)
}

// DefaultDatasetConfig is the paper's dataset configuration.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// LoadOrGenerateDataset returns the dataset cached at path, generating and
// caching it when absent or stale.
func LoadOrGenerateDataset(path string, cfg DatasetConfig, seed int64) (*Dataset, error) {
	return dataset.LoadOrGenerate(path, cfg, seed)
}

// DefaultBidConfig mirrors the paper's bid model (bmax 100, 20 % valuation
// noise, 25 % sensing discrepancy).
func DefaultBidConfig() BidConfig { return bidder.DefaultConfig() }

// NewPopulation places n secondary users in area and computes their
// truthful bids.
func NewPopulation(area *Area, n int, cfg BidConfig, rng *rand.Rand) (*Population, error) {
	return bidder.NewPopulation(area, n, cfg, rng)
}

// Points extracts protocol coordinates from a population.
func Points(pop *Population) []Point { return sim.Points(pop) }

// NewScenario derives protocol parameters for an auction over the first
// channels channels of area, with interference half-range lambda cells.
func NewScenario(area *Area, channels int, lambda uint64) (*Scenario, error) {
	return sim.NewScenario(area, channels, lambda)
}

// DeriveKeyRing deterministically expands a seed into the round's secret
// material (the TTP's role); use NewKeyRing for crypto/rand keys.
func DeriveKeyRing(seed []byte, channels int, rd, cr uint64) (*KeyRing, error) {
	return mask.DeriveKeyRing(seed, channels, rd, cr)
}

// NewKeyRing draws a fresh key ring from crypto/rand.
func NewKeyRing(channels int, rd, cr uint64) (*KeyRing, error) {
	return mask.NewKeyRing(channels, rd, cr)
}

// DefaultDisguise is a moderate zero-disguise policy.
func DefaultDisguise() DisguisePolicy { return core.DefaultDisguise() }

// NewLocationSubmission builds a bidder's masked location submission.
func NewLocationSubmission(params Params, ring *KeyRing, pt Point) (*LocationSubmission, error) {
	return core.NewLocationSubmission(params, ring, pt)
}

// Conflicts evaluates the masked conflict predicate between two location
// submissions — the only location operation the auctioneer can perform.
func Conflicts(a, b *LocationSubmission) bool { return core.Conflicts(a, b) }

// Run executes a full LPPA round in-process. The default is the paper's
// design — one disguise policy for all bidders, batch TTP charging, on
// the calling goroutine — and functional options select every variant:
// worker count, per-bidder policies, charging rule, and telemetry. The
// same inputs and charging options give the same round at every worker
// count.
func Run(params Params, ring *KeyRing, in RoundInput, opts ...RunOption) (*RoundResult, error) {
	return round.Run(params, ring, in, opts...)
}

// WithWorkers sets the round's width to n goroutines (0 = GOMAXPROCS):
// the bidders' encode and the auctioneer's conflict graph and rank memo
// builds, which without it run on the round goroutine. It never changes a
// result: Run with any n, or without the option, returns the same round.
func WithWorkers(n int) RunOption { return round.WithWorkers(n) }

// WithPolicies gives each bidder its own disguise policy (len must equal
// the population size); overrides RoundInput.Policy.
func WithPolicies(policies []DisguisePolicy) RunOption { return round.WithPolicies(policies) }

// WithInteractiveCharging switches to per-award TTP validity checks (the
// ablation design; see DESIGN.md §5).
func WithInteractiveCharging() RunOption { return round.WithInteractiveCharging() }

// WithSecondPrice switches to clearing-price charging: winners pay the
// award-time runner-up's bid, unblinded by the TTP.
func WithSecondPrice() RunOption { return round.WithSecondPrice() }

// WithTelemetry reports the round through tel: per-phase wall time,
// winners, revenue, comparison and interning counters into tel.Metrics, a
// round root span with encode/conflict_graph/rank_memo/allocate/charge
// children
// into tel.Tracer, the traced round into tel.Flight, and each phase's wall
// time to tel.OnPhase. A Flight without a Tracer is rejected. The round
// counts whatever tel holds, and results are bit-identical either way.
// See DESIGN.md §5c and §5e.
func WithTelemetry(tel Telemetry) RunOption { return round.WithTelemetry(tel) }

// WithQuorum lets Run degrade gracefully: bidders whose submissions cannot
// be produced are excluded (reported in RoundResult.Excluded) as long as at
// least q usable submissions remain; fewer fail the round with
// ErrQuorumNotReached. A fault-free round is bit-identical with or without
// the option.
func WithQuorum(q int) RunOption { return round.WithQuorum(q) }

// ErrQuorumNotReached reports a round (in-process or networked) that ended
// with fewer usable submissions than its quorum; test with errors.Is.
var ErrQuorumNotReached = round.ErrQuorumNotReached

// NewRegistry creates an empty metrics registry for a Telemetry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer creates a tracer whose spans report proc as their process
// name; its Named method derives same-buffer views for co-located parties.
func NewTracer(proc string) *Tracer { return obs.NewTracer(proc) }

// NewSampledTracer creates a tracer that traces one round in every k, for
// long-lived services where tracing every epoch is unaffordable; rounds
// it skips stay on the allocation-free untraced path. The schedule is a
// pure function of (seed, k), so the sampled trace set replays bit for
// bit. See DESIGN.md §5j.
func NewSampledTracer(proc string, seed int64, k int) *Tracer {
	return obs.NewSampledTracer(proc, seed, k)
}

// NewFlightRecorder creates a flight recorder that keeps the last keep
// round traces in memory and dumps the ring into dir when a round fails,
// degrades to quorum, or (slo > 0) overruns slo.
func NewFlightRecorder(dir string, keep int, slo time.Duration) *FlightRecorder {
	return obs.NewFlightRecorder(dir, keep, slo)
}

// WriteChromeTrace exports spans in Chrome trace_event format — load the
// file in ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []*Span) error { return obs.WriteChromeTrace(w, spans) }

// WriteTraceSummary renders a human-readable per-trace span tree.
func WriteTraceSummary(w io.Writer, spans []*Span) error { return obs.WriteTraceSummary(w, spans) }

// AuditRound tallies what one round's transcript exposed to the
// auctioneer — masked digest counts, conflict degrees, per-channel
// comparison work — and, given a coverage area, the anonymity-set size
// the paper's transcript attacker achieves against each bidder.
func AuditRound(res *RoundResult, opts AuditOptions) (*AuditReport, error) {
	return audit.Round(res, opts)
}

// NewSeries builds a multi-auction runner with batched TTP charging
// (section V.C.2).
func NewSeries(params Params, ring *KeyRing, maxRequests, maxRounds int, rng *rand.Rand) (*Series, error) {
	return round.NewSeries(params, ring, maxRequests, maxRounds, rng)
}

// RunPlainBaseline runs the non-private reference auction.
func RunPlainBaseline(points []Point, bids [][]uint64, lambda uint64, rng *rand.Rand) (*Outcome, error) {
	return round.RunPlainBaseline(points, bids, lambda, rng)
}

// BCM runs the Bid-Channels Mining attack for an observed channel set.
func BCM(area *Area, channels []int) (*CellSet, error) { return attack.BCM(area, channels) }

// BCMFromBids runs BCM on a plaintext bid vector (Algorithm 1).
func BCMFromBids(area *Area, bids []uint64) (*CellSet, error) {
	return attack.BCMFromBids(area, bids)
}

// BCMRobust runs the noise-tolerant BCM variant used against LPPA
// transcripts: it keeps the cells consistent with the most observations.
func BCMRobust(area *Area, channels []int) (*CellSet, int, error) {
	return attack.BCMRobust(area, channels)
}

// BPM runs the Bid-Price Mining attack (Algorithm 2).
func BPM(area *Area, p *CellSet, bids []uint64, cfg BPMConfig) (*BPMResult, error) {
	return attack.BPM(area, p, bids, cfg)
}

// TopFractionChannels extracts per-user observed channels from per-channel
// bid rankings (the attacker's move against LPPA transcripts).
func TopFractionChannels(rankings [][]int, n int, frac float64) ([][]int, error) {
	return attack.TopFractionChannels(rankings, n, frac)
}

// NewCardinalityTable precomputes the section IV.C.1 cardinality-leak
// inversion against the basic bid scheme.
func NewCardinalityTable(bmax uint64) (*CardinalityTable, error) {
	return attack.NewCardinalityTable(bmax)
}

// EvaluatePrivacy computes the four privacy metrics for one attack output.
func EvaluatePrivacy(p *CellSet, truth Cell) PrivacyReport { return privacy.Evaluate(p, truth) }

// SummarizePrivacy aggregates per-victim reports.
func SummarizePrivacy(reports []PrivacyReport) PrivacyAggregate { return privacy.Summarize(reports) }

// Theorem1 returns the closed-form probability that no zero bid wins
// (paper equation 4), under replacement distribution d (index r = value,
// d[r] = p_r).
func Theorem1(d []float64, bN, m int) (float64, error) { return theory.Theorem1(theory.Dist(d), bN, m) }

// UniformDisguiseDist is Theorem 3's best-protection distribution.
func UniformDisguiseDist(bmax int) []float64 { return theory.UniformDist(bmax) }

// DefaultMultiRoundConfig is a moderate repeated-participation setting.
func DefaultMultiRoundConfig() MultiRoundConfig { return sim.DefaultMultiRoundConfig() }

// MultiRound runs the repeated-participation experiment of section V.C.3:
// the linked attacker accumulates observations across rounds; the ID-mixing
// defence confines it to single rounds.
func MultiRound(area *Area, cfg MultiRoundConfig, seed int64) ([]MultiRoundPoint, error) {
	return sim.MultiRound(area, cfg, seed)
}
