// Package round orchestrates complete auction rounds: it wires bidders,
// the LPPA auctioneer, and the TTP together for the private protocol, and
// runs the plaintext baseline for comparison. The experiment drivers and
// examples build on this package.
//
// A round splits at the paper's trust boundary. The bidder half (encode)
// masks every bidder's location and bids under the key ring; the
// auctioneer half, Auction, sees only the masked submissions: it builds
// the conflict graph, allocates channels (Algorithm 3) and settles the
// winners through a Charger, holding no key ring and no plaintext. Run is
// the in-process round: the bidder half, quorum compaction, then Auction
// charged by the in-process TTP. The networked auctioneer
// (internal/transport) runs Auction over the submissions it collected and
// charges through its TTP client, so both paths share one auctioneer.
//
// Functional options select the encoding pipeline (WithWorkers), disguise
// shape (WithPolicies), charging design (WithInteractiveCharging,
// WithSecondPrice), degradation (WithQuorum), and observability
// (WithTelemetry, with WithEpochNumber tagging an epoch's round). A round
// reports through one obs.Telemetry value: Run opens the run's lifecycle
// with Telemetry.Start, Auction reports its phases into it, and Finish
// closes the root span and feeds the flight recorder. The auctioneer has
// one execution path whatever the options: one conflict-graph build over
// the whole population, one rank memo per column, one allocator sweep.
package round

import (
	"math/rand"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

// Result is the outcome of one private round.
type Result struct {
	// Outcome carries assignments, charges, revenue, and satisfaction.
	// Voided awards contribute zero charge and no satisfaction.
	Outcome *auction.Outcome
	// Voided counts awards the TTP invalidated (disguised or true zeros
	// that won); each voided award wastes its channel slot this round.
	Voided int
	// Violations counts protocol violations the TTP detected, plus awards
	// its reply left without a verdict (zero with honest parties).
	Violations int
	// Auctioneer exposes the transcript (rankings, conflict graph) for
	// attack evaluation.
	Auctioneer *core.Auctioneer
	// SubmissionBytes is the total masked-bid transcript size, for the
	// Theorem 4 communication-cost experiment.
	SubmissionBytes int
	// Excluded lists bidders (original indices, ascending) left out of a
	// degraded quorum round — their submissions failed to encode. Empty on
	// full-attendance rounds. Assignment bidder indices in Outcome always
	// refer to the original population, but Auctioneer's transcript
	// indexes the compacted one.
	Excluded []int
	// Trace is the round's trace ID when the round was traced (a
	// WithTelemetry tracer opened its root span; a sampled tracer opens one
	// round in K); zero otherwise. The ops plane uses it to correlate
	// events with sampled spans.
	Trace obs.TraceID
}

// RunPlainBaseline runs the non-private reference auction on the same
// inputs: plaintext conflict graph, plaintext bids, zero bids excluded.
func RunPlainBaseline(points []geo.Point, bids [][]uint64, lambda uint64, rng *rand.Rand) (*auction.Outcome, error) {
	g := conflict.BuildPlain(points, lambda)
	return auction.RunPlain(bids, g, rng)
}
