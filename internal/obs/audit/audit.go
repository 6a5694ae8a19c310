// Package audit tallies the auctioneer-observable surface of one private
// round into a leakage report: how many masked digests each bidder
// exposed, how many bidders each one conflicts with, and — when a
// ground-truth coverage area is supplied — how small the paper's
// section VI.C transcript attacker can squeeze each bidder's anonymity
// set. The report is what `make audit-snapshot` serialises as
// AUDIT_ROUND.json.
//
// The auditor only reads what the auctioneer already holds (the round
// transcript) plus public coverage data; it never touches plaintext
// locations or bids, so a report can be produced by the auctioneer
// itself without weakening the protocol.
package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"lppa/internal/attack"
	"lppa/internal/dataset"
	"lppa/internal/obs"
	"lppa/internal/round"
)

// BidderAudit is the per-bidder leakage tally.
type BidderAudit struct {
	// Bidder is the original population index (pre-quorum-compaction).
	Bidder int `json:"bidder"`
	// Digests counts the masked digests this bidder handed the
	// auctioneer: location families and range covers plus every channel
	// bid's family and cover.
	Digests int `json:"digests"`
	// ConflictDegree is the bidder's degree in the masked conflict graph
	// — how many other bidders the auctioneer learned it interferes with.
	ConflictDegree int `json:"conflict_degree"`
	// ObservedChannels is how many channels the top-fraction transcript
	// attacker presumes available to this bidder.
	ObservedChannels int `json:"observed_channels"`
	// AnonymityCells is the size of the attacker's best-guess region for
	// this bidder under the robust BCM attack — the anonymity-set size in
	// grid cells. Zero when no coverage area was supplied (BCM always
	// returns at least one cell, so zero is unambiguous).
	AnonymityCells int `json:"anonymity_cells,omitempty"`
	// Satisfied is how many of the observed channels the attacker's
	// chosen cells actually satisfy; ObservedChannels−Satisfied is the
	// attacker-visible evidence of disguised-zero poisoning.
	Satisfied int `json:"satisfied,omitempty"`
}

// Report is the per-round privacy-leakage audit.
type Report struct {
	// Bidders is the audited (non-excluded) population size.
	Bidders int `json:"bidders"`
	// Channels is the number of auctioned channels.
	Channels int `json:"channels"`
	// Excluded lists original indices dropped from a degraded quorum
	// round; they submitted nothing the auctioneer kept, so they carry no
	// per-bidder entry.
	Excluded []int `json:"excluded,omitempty"`
	// DigestsTotal sums Digests over all audited bidders.
	DigestsTotal int `json:"digests_total"`
	// DegreeHist[d] counts bidders with conflict degree d.
	DegreeHist []int `json:"degree_hist"`
	// KeepFraction is the top-fraction the modelled attacker keeps per
	// channel ranking.
	KeepFraction float64 `json:"keep_fraction"`
	// MinAnonymityCells and MeanAnonymityCells summarise AnonymityCells
	// across bidders; zero when no coverage area was supplied.
	MinAnonymityCells  int     `json:"min_anonymity_cells,omitempty"`
	MeanAnonymityCells float64 `json:"mean_anonymity_cells,omitempty"`
	// ReplaysDeduped and FramesRejected fold in the transport's replay
	// and reject counters when a metrics registry is supplied: duplicate
	// or malformed submissions are an attacker-visible event class.
	ReplaysDeduped uint64 `json:"replays_deduped"`
	FramesRejected uint64 `json:"frames_rejected"`
	// PerBidder is keyed by original bidder index, ascending.
	PerBidder []BidderAudit `json:"per_bidder"`
}

// Options configures the audit.
type Options struct {
	// Area is the ground-truth coverage dataset the modelled attacker
	// holds. When nil the report is surface-only: digest counts and
	// conflict degrees, but no anonymity sets.
	Area *dataset.Area
	// KeepFraction is the fraction of each channel ranking the attacker
	// keeps as "available" (default 0.5, the paper's strongest practical
	// setting).
	KeepFraction float64
	// Metrics, when non-nil, contributes the transport replay/reject
	// counters to the report.
	Metrics *obs.Registry
}

// Round audits one completed private round.
func Round(res *round.Result, opts Options) (*Report, error) {
	if res == nil || res.Auctioneer == nil {
		return nil, fmt.Errorf("audit: round result carries no auctioneer transcript")
	}
	keep := opts.KeepFraction
	if keep == 0 {
		keep = 0.5
	}
	auc := res.Auctioneer
	n := auc.N()
	rankings := auc.Rankings()
	if opts.Area != nil && opts.Area.NumChannels() < len(rankings) {
		return nil, fmt.Errorf("audit: area has %d channels, round ranked %d",
			opts.Area.NumChannels(), len(rankings))
	}

	// Compacted transcript index → original population index: the kept
	// bidders are exactly the non-excluded ids, ascending.
	origID := originalIDs(n, res.Excluded)

	digests := auc.DigestCounts()
	graph := auc.ConflictGraph()
	observed, err := attack.TopFractionChannels(rankings, n, keep)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}

	rep := &Report{
		Bidders:      n,
		Channels:     len(rankings),
		Excluded:     append([]int(nil), res.Excluded...),
		DegreeHist:   make([]int, n),
		KeepFraction: keep,
		PerBidder:    make([]BidderAudit, n),
	}
	maxDeg := 0
	cellSum := 0
	for i := 0; i < n; i++ {
		deg := graph.Degree(i)
		if deg > maxDeg {
			maxDeg = deg
		}
		rep.DegreeHist[deg]++
		b := BidderAudit{
			Bidder:           origID[i],
			Digests:          digests[i],
			ConflictDegree:   deg,
			ObservedChannels: len(observed[i]),
		}
		rep.DigestsTotal += digests[i]
		if opts.Area != nil {
			cells, satisfied, err := attack.BCMRobust(opts.Area, observed[i])
			if err != nil {
				return nil, fmt.Errorf("audit: bidder %d: %w", origID[i], err)
			}
			b.AnonymityCells = cells.Count()
			b.Satisfied = satisfied
			cellSum += b.AnonymityCells
			if rep.MinAnonymityCells == 0 || b.AnonymityCells < rep.MinAnonymityCells {
				rep.MinAnonymityCells = b.AnonymityCells
			}
		}
		rep.PerBidder[i] = b
	}
	rep.DegreeHist = rep.DegreeHist[:maxDeg+1]
	if opts.Area != nil && n > 0 {
		rep.MeanAnonymityCells = float64(cellSum) / float64(n)
	}
	if opts.Metrics != nil {
		snap := opts.Metrics.Snapshot()
		rep.ReplaysDeduped = sumCounters(snap, "lppa_transport_replays_deduped_total")
		rep.FramesRejected = sumCounters(snap, "lppa_transport_frames_rejected_total")
	}
	return rep, nil
}

// originalIDs maps compacted transcript indices back to original
// population ids: the kept ids are every id not in excluded, ascending
// (round.Result documents excluded as ascending original indices).
func originalIDs(n int, excluded []int) []int {
	if len(excluded) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	skip := make(map[int]bool, len(excluded))
	for _, id := range excluded {
		skip[id] = true
	}
	out := make([]int, 0, n)
	for id := 0; len(out) < n; id++ {
		if !skip[id] {
			out = append(out, id)
		}
	}
	return out
}

// sumCounters folds every series of one counter family (the snapshot is
// keyed by name{labels}, so a family contributes one entry per label set).
func sumCounters(snap obs.Snapshot, family string) uint64 {
	var total uint64
	for key, v := range snap.Counters {
		if key == family || strings.HasPrefix(key, family+"{") {
			total += v
		}
	}
	return total
}

// WriteJSON serialises the report, indented, to path.
func (r *Report) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Summary renders a terse human-readable digest of the report, one line
// per headline figure, for log output alongside the JSON artifact.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d bidders, %d channels, %d masked digests\n",
		r.Bidders, r.Channels, r.DigestsTotal)
	if len(r.Excluded) > 0 {
		fmt.Fprintf(&b, "audit: excluded bidders %v\n", r.Excluded)
	}
	if r.MinAnonymityCells > 0 {
		fmt.Fprintf(&b, "audit: anonymity cells min %d mean %.1f (keep %.2f)\n",
			r.MinAnonymityCells, r.MeanAnonymityCells, r.KeepFraction)
	}
	if r.ReplaysDeduped > 0 || r.FramesRejected > 0 {
		fmt.Fprintf(&b, "audit: %d replays deduped, %d frames rejected\n",
			r.ReplaysDeduped, r.FramesRejected)
	}
	worst := make([]BidderAudit, len(r.PerBidder))
	copy(worst, r.PerBidder)
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].AnonymityCells != worst[j].AnonymityCells {
			return worst[i].AnonymityCells < worst[j].AnonymityCells
		}
		return worst[i].Bidder < worst[j].Bidder
	})
	if len(worst) > 3 {
		worst = worst[:3]
	}
	for _, w := range worst {
		fmt.Fprintf(&b, "audit: bidder %d: %d digests, degree %d, anonymity %d\n",
			w.Bidder, w.Digests, w.ConflictDegree, w.AnonymityCells)
	}
	return b.String()
}
