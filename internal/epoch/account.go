package epoch

import (
	"fmt"
	"sync"

	"lppa/internal/obs"
)

// Store is the accounting backend: one ApplyBatch call models one
// datastore round trip persisting len(deltas) per-key writes. The
// Accountant's whole job is to make these calls rare without ever
// making the persisted totals inexact.
type Store interface {
	ApplyBatch(deltas map[int]uint64) error
}

// MemStore is the in-memory simulated datastore used by tests, the soak
// harness, and the CLI demo. It tallies calls and writes so the batched
// accountant's write amplification is a measurable, assertable number.
type MemStore struct {
	mu     sync.Mutex
	totals map[int]uint64
	calls  uint64
	writes uint64
}

// NewMemStore returns an empty simulated datastore.
func NewMemStore() *MemStore { return &MemStore{totals: make(map[int]uint64)} }

// ApplyBatch folds one flush into the totals: one call, one write per key.
func (s *MemStore) ApplyBatch(deltas map[int]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	for k, v := range deltas {
		s.totals[k] += v
		s.writes++
	}
	return nil
}

// Total returns the persisted total for one key.
func (s *MemStore) Total(key int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals[key]
}

// Totals returns a copy of every persisted total.
func (s *MemStore) Totals() map[int]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]uint64, len(s.totals))
	for k, v := range s.totals {
		out[k] = v
	}
	return out
}

// Calls reports datastore round trips; Writes reports per-key writes.
func (s *MemStore) Calls() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.calls }

// Writes reports per-key writes issued across all calls.
func (s *MemStore) Writes() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.writes }

// acctStripes spreads the pending map over independently locked stripes
// so concurrent submitters on different bidders rarely contend.
const acctStripes = 16

type acctStripe struct {
	mu      sync.Mutex
	pending map[int]uint64
	sum     uint64
}

// Accountant is the VSA-style thresholded accumulator between per-op
// accounting (billing charges, quota debits) and the datastore: exact
// uint64 deltas accumulate in striped memory and flush as one batch when
// a stripe's pending sum crosses the threshold, or when the service
// closes an epoch (Flush). Totals are exact at every flush boundary —
// batching trades write frequency, never accuracy.
//
// Accountant is safe for concurrent use.
type Accountant struct {
	name      string
	threshold uint64
	store     Store
	stripes   [acctStripes]acctStripe

	ops     *obs.Counter
	flushes *obs.Counter
	calls   *obs.Counter
	writes  *obs.Counter
}

// NewAccountant builds an accountant flushing to store whenever one
// stripe's pending sum reaches threshold (0 means flush only on Flush —
// pure epoch-close batching). name labels the obs series ("billing",
// "quota"); reg may be nil.
func NewAccountant(name string, store Store, threshold uint64, reg *obs.Registry) (*Accountant, error) {
	if store == nil {
		return nil, fmt.Errorf("epoch: accountant %q needs a store", name)
	}
	a := &Accountant{name: name, threshold: threshold, store: store}
	for i := range a.stripes {
		a.stripes[i].pending = make(map[int]uint64)
	}
	l := obs.L("ledger", name)
	a.ops = reg.Counter("lppa_acct_ops_total", l)
	a.flushes = reg.Counter("lppa_acct_flushes_total", l)
	a.calls = reg.Counter("lppa_acct_store_calls_total", l)
	a.writes = reg.Counter("lppa_acct_store_writes_total", l)
	return a, nil
}

// Add accumulates delta for key, flushing the key's stripe when its
// pending sum reaches the threshold. The flush happens under the stripe
// lock, so a concurrent Flush can neither drop nor double-count the
// delta — exactness under concurrent flush is pinned by test.
func (a *Accountant) Add(key int, delta uint64) error {
	a.ops.Inc()
	if delta == 0 {
		return nil
	}
	st := &a.stripes[uint(key)%acctStripes]
	st.mu.Lock()
	st.pending[key] += delta
	st.sum += delta
	var err error
	if a.threshold > 0 && st.sum >= a.threshold {
		err = a.flushStripe(st)
	}
	st.mu.Unlock()
	return err
}

// flushStripe persists and clears one stripe; callers hold its lock.
func (a *Accountant) flushStripe(st *acctStripe) error {
	if len(st.pending) == 0 {
		return nil
	}
	batch := st.pending
	st.pending = make(map[int]uint64, len(batch))
	st.sum = 0
	a.flushes.Inc()
	a.calls.Inc()
	a.writes.Add(uint64(len(batch)))
	return a.store.ApplyBatch(batch)
}

// Flush persists every pending delta — the epoch-close barrier. After
// Flush returns (with every concurrent Add that happened-before it
// observed), store totals equal the exact sum of all added deltas.
func (a *Accountant) Flush() error {
	var first error
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		err := a.flushStripe(st)
		st.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Pending reports how many keys currently hold unflushed deltas.
func (a *Accountant) Pending() int {
	n := 0
	for i := range a.stripes {
		st := &a.stripes[i]
		st.mu.Lock()
		n += len(st.pending)
		st.mu.Unlock()
	}
	return n
}

// Accounting bundles the service's two ledgers: billing (winner charges,
// in bid units) and quota (one debit per admitted submission). Either
// may be nil; Flush flushes whichever exist.
type Accounting struct {
	Billing *Accountant
	Quota   *Accountant
}

// Flush flushes both ledgers, returning the first error.
func (x *Accounting) Flush() error {
	if x == nil {
		return nil
	}
	var first error
	if x.Billing != nil {
		if err := x.Billing.Flush(); err != nil {
			first = err
		}
	}
	if x.Quota != nil {
		if err := x.Quota.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
