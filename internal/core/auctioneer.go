package core

import (
	"fmt"
	"math/rand"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// Auctioneer is the untrusted party running PSD. It holds only masked
// submissions; every method corresponds to an operation the protocol
// legitimately grants it (and which a curious auctioneer may also abuse —
// the transcript methods are what the attack experiments consume).
//
// An Auctioneer is not safe for concurrent use: the conflict graph and the
// per-column rank memo are built lazily on first use. The builds fan out
// over SetWorkers' goroutines internally, which does not change that.
// Submissions are immutable once handed to NewAuctioneer, so neither cache
// is ever invalidated.
type Auctioneer struct {
	params  Params
	locs    []*LocationSubmission
	bids    []*BidSubmission
	workers int // SetWorkers; 0 builds serially
	graph   *conflict.Graph
	// ixStats describes the candidate index of the last graph build
	// (graphbuild.go).
	ixStats mask.IndexStats

	// Per-column rank memo, every column built on first use (rank.go):
	// rankOrder[r] is all bidders sorted by descending masked bid (ties in
	// index order), rank[r][i] the dense value rank of bidder i (0 =
	// highest; equal masked bids share a rank). One counting pass over the
	// column's digests replaces the O(n) masked set intersections of every
	// later scan.
	rank      [][]int
	rankOrder [][]int

	// ob receives each build's tallies (observe.go); its zero value, the
	// default, discards them.
	ob aucObs
}

// NewAuctioneer collects one location and one bid submission per bidder.
func NewAuctioneer(params Params, locs []*LocationSubmission, bids []*BidSubmission) (*Auctioneer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(locs) != len(bids) {
		return nil, fmt.Errorf("core: %d location submissions vs %d bid submissions", len(locs), len(bids))
	}
	if len(locs) == 0 {
		return nil, fmt.Errorf("core: no bidders")
	}
	for i, b := range bids {
		if len(b.Channels) != params.Channels {
			return nil, fmt.Errorf("core: bidder %d submitted %d channel bids, want %d",
				i, len(b.Channels), params.Channels)
		}
	}
	return &Auctioneer{params: params, locs: locs, bids: bids}, nil
}

// N reports the number of bidders.
func (a *Auctioneer) N() int { return len(a.bids) }

// SetWorkers bounds the goroutines the conflict graph and rank memo builds
// fan out over. n ≤ 1, the default, builds on the calling goroutine. The
// graph, the memos and every counter are the same for every n.
func (a *Auctioneer) SetWorkers(n int) { a.workers = n }

// width is the worker count of a build over items independent items.
func (a *Auctioneer) width(items int) int { return mask.Workers(max(a.workers, 1), items) }

// ConflictGraph lazily builds and returns the masked-submission conflict
// graph through the shared builder (graphbuild.go).
func (a *Auctioneer) ConflictGraph() *conflict.Graph {
	if a.graph == nil {
		a.graph = a.buildGraph()
	}
	return a.graph
}

// GE reports whether bidder i's masked bid on channel r is at least
// bidder j's. Answers come from the per-column rank memo, so repeated
// column scans (the allocator revisits each column every epoch) cost one
// comparison instead of one masked set intersection.
func (a *Auctioneer) GE(r, i, j int) bool {
	rank := a.columnRank(r)
	return rank[i] <= rank[j]
}

// fullPresent builds the all-true presence matrix in two allocations (one
// flat backing array, one row index) instead of n+1.
func fullPresent(n, k int) [][]bool {
	flat := make([]bool, n*k)
	for i := range flat {
		flat[i] = true
	}
	present := make([][]bool, n)
	for i := range present {
		present[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return present
}

// allocateAwards is the one allocation entry point behind
// Allocate/AllocateWithValidity/AllocateAwards: the paper's Algorithm 3 run
// by the rank-cursor engine (auction.AllocateAwardsOrdered) directly on the
// per-column memos — the same awards as the comparator-driven
// auction.AllocateAwards, without its two O(n) comparator sweeps per award.
func (a *Auctioneer) allocateAwards(valid auction.Validity, rng *rand.Rand) ([]auction.Award, []auction.Assignment, error) {
	n, k := a.N(), a.params.Channels
	column := func(r int) (order, rank []int) {
		a.columnRank(r)
		return a.rankOrder[r], a.rank[r]
	}
	var served uint64
	awards, voided, err := auction.AllocateAwardsOrdered(n, k, fullPresent(n, k), a.ConflictGraph(), column, valid, &served, rng)
	a.ob.rankMemoHits.Add(served)
	return awards, voided, err
}

// Allocate runs the private spectrum allocation (Algorithm 3 over masked
// bids). Every bidder participates on every channel — the auctioneer
// cannot tell zeros apart, which is precisely why disguised zeros can win
// and later be voided by the TTP.
func (a *Auctioneer) Allocate(rng *rand.Rand) ([]auction.Assignment, error) {
	awards, _, err := a.allocateAwards(nil, rng)
	if err != nil {
		return nil, err
	}
	assignments := make([]auction.Assignment, len(awards))
	for i, aw := range awards {
		assignments[i] = aw.Assignment
	}
	return assignments, nil
}

// SealedBid returns the opaque TTP ciphertext of bidder i's bid on
// channel r, for relay to the TTP (validity checks and charging).
func (a *Auctioneer) SealedBid(i, r int) []byte {
	return a.bids[i].Channels[r].Sealed
}

// AllocateWithValidity runs the private allocation with an interactive
// TTP validity oracle: each prospective award is checked before it stands,
// and void awards (disguised or true zeros) waste the channel in the
// winner's neighborhood without expelling the bidder.
func (a *Auctioneer) AllocateWithValidity(valid auction.Validity, rng *rand.Rand) (awarded, voided []auction.Assignment, err error) {
	awards, voided, err := a.allocateAwards(valid, rng)
	if err != nil {
		return nil, nil, err
	}
	assignments := make([]auction.Assignment, len(awards))
	for i, aw := range awards {
		assignments[i] = aw.Assignment
	}
	return assignments, voided, nil
}

// RankChannel returns all bidders ordered by descending masked bid on
// channel r. This is transcript information a curious auctioneer can
// always compute (order-preserving masking), and it feeds the Fig. 5
// t-largest BCM attack. The ordering comes straight from the per-column
// memo (built on first use); callers get a private copy.
func (a *Auctioneer) RankChannel(r int) []int {
	a.columnRank(r)
	return append([]int(nil), a.rankOrder[r]...)
}

// Rankings returns RankChannel for every channel.
func (a *Auctioneer) Rankings() [][]int {
	out := make([][]int, a.params.Channels)
	for r := range out {
		out[r] = a.RankChannel(r)
	}
	return out
}

// DigestCounts returns, per bidder, how many masked digests that bidder
// exposed to the auctioneer: the location families and range covers plus
// every channel bid's family and cover. This is the auctioneer-observable
// surface the privacy audit (internal/obs/audit) tallies.
func (a *Auctioneer) DigestCounts() []int {
	out := make([]int, a.N())
	for i := range out {
		l := a.locs[i]
		total := l.XFamily.Len() + l.YFamily.Len() + l.XRange.Len() + l.YRange.Len()
		for r := range a.bids[i].Channels {
			cb := &a.bids[i].Channels[r]
			total += cb.Family.Len() + cb.Range.Len()
		}
		out[i] = total
	}
	return out
}

// ChargeRequest is what the auctioneer forwards to the TTP for one awarded
// channel: the opaque sealed value plus the winner's masked prefix family,
// which the TTP uses to verify the bidder did not present one price to the
// auction and another to the cashier.
type ChargeRequest struct {
	Bidder  int
	Channel int
	Sealed  []byte
	Family  []mask.Digest
	// SecondPrice charges the winner the runner-up's true bid instead of
	// its own: the TTP unblinds RunnerUpSealed, and charges zero when the
	// runner-up was itself a zero or, with RunnerUpSealed nil, when the
	// winner had no runner-up. Without it a present RunnerUpSealed still
	// switches the charge to second price; with neither it is first price.
	SecondPrice    bool
	RunnerUpSealed []byte
}

// ChargeRequests assembles the TTP batch for a set of assignments
// (section V.C.2: batching reduces TTP online time).
func (a *Auctioneer) ChargeRequests(assignments []auction.Assignment) []ChargeRequest {
	return a.chargeBatch(len(assignments), func(i int) (auction.Assignment, int) { return assignments[i], -1 })
}

// AllocateAwards is Allocate with award-time runner-ups, for second-price
// charging.
func (a *Auctioneer) AllocateAwards(rng *rand.Rand) ([]auction.Award, error) {
	awards, _, err := a.allocateAwards(nil, rng)
	return awards, err
}

// ChargeRequestsSecondPrice assembles a second-price TTP batch: each
// request carries the winner's sealed bid (validity + price/prefix
// verification), is marked SecondPrice, and carries the runner-up's sealed
// bid (the clearing price) when the award had one.
func (a *Auctioneer) ChargeRequestsSecondPrice(awards []auction.Award) []ChargeRequest {
	reqs := a.chargeBatch(len(awards), func(i int) (auction.Assignment, int) { return awards[i].Assignment, awards[i].RunnerUp })
	for i := range reqs {
		reqs[i].SecondPrice = true
	}
	return reqs
}

// chargeBatch builds n charge requests; award(i) gives the i-th winner's
// assignment and its runner-up, negative for none (first price). All
// sealed copies, winners' and runner-ups', share one flat backing array
// and all family digests another — one allocation each for the whole
// batch instead of two or three per request; full-capacity subslices keep
// the requests append-isolated from one another.
func (a *Auctioneer) chargeBatch(n int, award func(i int) (auction.Assignment, int)) []ChargeRequest {
	sealedTotal, famTotal := 0, 0
	for i := 0; i < n; i++ {
		as, ru := award(i)
		cb := &a.bids[as.Bidder].Channels[as.Channel]
		sealedTotal += len(cb.Sealed)
		famTotal += cb.Family.Len()
		if ru >= 0 {
			sealedTotal += len(a.bids[ru].Channels[as.Channel].Sealed)
		}
	}
	sealedBuf := make([]byte, 0, sealedTotal)
	famBuf := make([]mask.Digest, 0, famTotal)
	reqs := make([]ChargeRequest, n)
	for i := range reqs {
		as, ru := award(i)
		cb := &a.bids[as.Bidder].Channels[as.Channel]
		s0 := len(sealedBuf)
		sealedBuf = append(sealedBuf, cb.Sealed...)
		f0 := len(famBuf)
		famBuf = cb.Family.AppendDigests(famBuf)
		reqs[i] = ChargeRequest{
			Bidder:  as.Bidder,
			Channel: as.Channel,
			Sealed:  sealedBuf[s0:len(sealedBuf):len(sealedBuf)],
			Family:  famBuf[f0:len(famBuf):len(famBuf)],
		}
		if ru >= 0 {
			r0 := len(sealedBuf)
			sealedBuf = append(sealedBuf, a.bids[ru].Channels[as.Channel].Sealed...)
			reqs[i].RunnerUpSealed = sealedBuf[r0:len(sealedBuf):len(sealedBuf)]
		}
	}
	return reqs
}
