package lock

import (
	"slices"
	"sync"
	"sync/atomic"
)

// The lock table is striped into power-of-two shards, each owning a slice of
// the resource namespace (fnv-1a hash of the Resource string) behind its own
// latch. Disjoint-resource traffic — the common case the paper's
// fine-granularity protocol is designed to produce — therefore never
// serializes behind a single hot mutex.
//
// Latch-ordering discipline (violations deadlock the manager itself):
//
//  1. table-shard latch → txn-shard latch        (never the reverse)
//  2. table-shard latch → waits-for-table latch  (never the reverse)
//  3. multiple table-shard latches may be held simultaneously ONLY when
//     acquired in ascending stripe-index order (AcquireBatch's fast path
//     latches every involved stripe that way, grants, and unlatches).
//     Everything else holds at most ONE table-shard latch at a time;
//     cross-shard work (ReleaseAll, HeldLocks, Snapshot, deadlock detection)
//     snapshots under one latch, releases it, and re-latches the next shard.
//     Single-latch code never acquires a second stripe, and ascending-order
//     batchers cannot cycle among themselves, so the two regimes compose
//     deadlock-free.
//  4. txn-shard and waits-for latches are leaves: code holding them may not
//     acquire any other manager latch.
//
// OnEvent callbacks and event sinks are delivered with NO latch held (see
// Options.OnEvent / Options.Sinks).

// tableShard is one stripe of the lock table: a resource→entry map and the
// stripe's statistics counters.
type tableShard struct {
	mu    sync.Mutex
	idx   int // stripe index, stamped into trace events
	res   map[Resource]*entry
	stats shardStats
}

func newTableShard(idx int) *tableShard {
	return &tableShard{idx: idx, res: make(map[Resource]*entry)}
}

// entryFor returns (creating from the pool on demand) the shard's entry for
// r. Caller holds s.mu.
func (s *tableShard) entryFor(r Resource) *entry {
	e := s.res[r]
	if e == nil {
		e = getEntry()
		s.res[r] = e
	}
	return e
}

// removeWaiter removes w from r's queue, reporting whether it was present.
// Caller holds s.mu. A false return means the waiter was already granted or
// withdrawn by a concurrent actor (its ready channel then carries the
// outcome).
func (s *tableShard) removeWaiter(r Resource, w *waiter) bool {
	e := s.res[r]
	if e == nil {
		return false
	}
	return e.removeWaiterPtr(w)
}

// maybeDropEntry recycles r's entry once nothing is granted or queued.
// Caller holds s.mu.
func (s *tableShard) maybeDropEntry(r Resource) {
	if e := s.res[r]; e != nil && e.empty() {
		delete(s.res, r)
		putEntry(e)
	}
}

// shardStats are one stripe's cumulative counters. They are plain atomics so
// that Stats() aggregates lock-free while the stripe stays hot; increments
// happen on the shard that serviced the request, keeping the cache line
// local under disjoint workloads.
type shardStats struct {
	requests    atomic.Uint64
	regrants    atomic.Uint64
	grants      atomic.Uint64
	conversions atomic.Uint64
	conflicts   atomic.Uint64
	waits       atomic.Uint64
	deadlocks   atomic.Uint64
	timeouts    atomic.Uint64
	cancels     atomic.Uint64
	downgrades  atomic.Uint64
	releases    atomic.Uint64
	summaryFast atomic.Uint64
}

func (ss *shardStats) addTo(st *Stats) {
	st.Requests += ss.requests.Load()
	st.Regrants += ss.regrants.Load()
	st.Grants += ss.grants.Load()
	st.Conversions += ss.conversions.Load()
	st.Conflicts += ss.conflicts.Load()
	st.Waits += ss.waits.Load()
	st.Deadlocks += ss.deadlocks.Load()
	st.Timeouts += ss.timeouts.Load()
	st.Cancels += ss.cancels.Load()
	st.Downgrades += ss.downgrades.Load()
	st.Releases += ss.releases.Load()
	st.SummaryFastChecks += ss.summaryFast.Load()
}

func (ss *shardStats) reset() {
	ss.requests.Store(0)
	ss.regrants.Store(0)
	ss.grants.Store(0)
	ss.conversions.Store(0)
	ss.conflicts.Store(0)
	ss.waits.Store(0)
	ss.deadlocks.Store(0)
	ss.timeouts.Store(0)
	ss.cancels.Store(0)
	ss.downgrades.Store(0)
	ss.releases.Store(0)
	ss.summaryFast.Store(0)
}

// txnShard is one stripe of the per-transaction held-lock index (sharded by
// TxnID), so that commit/abort release and HeldLocks never sweep the
// resource shards looking for a transaction's locks.
type txnShard struct {
	mu   sync.Mutex
	held map[TxnID]*heldSet
}

func newTxnShard() *txnShard {
	return &txnShard{held: make(map[TxnID]*heldSet)}
}

// maxPooledHeld caps the size of a held set (and of a ReleaseAll sweep
// buffer) that is recycled. Go maps never shrink, so a set that once held
// more is left to the collector: one huge transaction must not pin its
// buckets in the pool.
const maxPooledHeld = 256

// heldSet is one transaction's held resources. Sets come from heldSetPool
// and go back, cleared, under the txn-shard latch when the transaction's
// last lock leaves the set — the moment ts.held forgets it, so nothing
// else can still reach it.
type heldSet struct {
	m map[Resource]struct{}
	// big records that the set grew past maxPooledHeld.
	big bool
}

var heldSetPool = sync.Pool{New: func() any {
	return &heldSet{m: make(map[Resource]struct{})}
}}

func (ts *txnShard) add(txn TxnID, r Resource) {
	ts.mu.Lock()
	set := ts.held[txn]
	if set == nil {
		set = heldSetPool.Get().(*heldSet)
		ts.held[txn] = set
	}
	set.m[r] = struct{}{}
	if len(set.m) > maxPooledHeld {
		set.big = true
	}
	ts.mu.Unlock()
}

func (ts *txnShard) remove(txn TxnID, r Resource) {
	ts.mu.Lock()
	if set := ts.held[txn]; set != nil {
		delete(set.m, r)
		if len(set.m) == 0 {
			delete(ts.held, txn)
			if !set.big {
				heldSetPool.Put(set)
			}
		}
	}
	ts.mu.Unlock()
}

// snapshot appends the resources txn holds at the moment of the call to
// buf and returns the result.
func (ts *txnShard) snapshot(txn TxnID, buf []Resource) []Resource {
	ts.mu.Lock()
	if set := ts.held[txn]; set != nil {
		buf = slices.Grow(buf, len(set.m))
		for r := range set.m {
			buf = append(buf, r)
		}
	}
	ts.mu.Unlock()
	return buf
}

// sweepPool recycles ReleaseAll's snapshot buffers.
var sweepPool = sync.Pool{New: func() any { return new([]Resource) }}

// waitRecord is a transaction's single outstanding lock request. Records
// are stored BY VALUE: get returns a copy, so readers never alias a record
// another goroutine may replace — and registering a wait allocates nothing
// (the waiter itself is pooled). The w pointer is an identity token for
// revalidation; it must not be dereferenced until the waiter is proven
// current under its resource's shard latch (pooled waiters recycle). gen is
// w's checkout stamp, captured at registration: comparing it alongside the
// pointer defeats pool ABA (same address, different blocked request).
type waitRecord struct {
	res Resource
	w   *waiter
	gen uint64
}

// waitTable is the cross-shard waits-for registry: which resource each
// blocked transaction is waiting on. It is the only structure the deadlock
// detector needs besides one resource shard at a time; its latch is a leaf
// in the ordering discipline.
type waitTable struct {
	mu      sync.Mutex
	waiting map[TxnID]waitRecord
}

func (wt *waitTable) put(txn TxnID, rec waitRecord) {
	wt.mu.Lock()
	wt.waiting[txn] = rec
	wt.mu.Unlock()
}

func (wt *waitTable) get(txn TxnID) (waitRecord, bool) {
	wt.mu.Lock()
	rec, ok := wt.waiting[txn]
	wt.mu.Unlock()
	return rec, ok
}

func (wt *waitTable) delete(txn TxnID) {
	wt.mu.Lock()
	delete(wt.waiting, txn)
	wt.mu.Unlock()
}

// size returns the number of outstanding lock requests without snapshotting
// them (the admission gate polls this on every conflicted acquire).
func (wt *waitTable) size() int {
	wt.mu.Lock()
	n := len(wt.waiting)
	wt.mu.Unlock()
	return n
}

// txns returns the transactions with an outstanding lock request at the
// moment of the call (unordered).
func (wt *waitTable) txns() []TxnID {
	wt.mu.Lock()
	out := make([]TxnID, 0, len(wt.waiting))
	for t := range wt.waiting {
		out = append(out, t)
	}
	wt.mu.Unlock()
	return out
}

// shardHash is fnv-1a over the resource name.
func shardHash(r Resource) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(r); i++ {
		h ^= uint32(r[i])
		h *= 16777619
	}
	return h
}

// nextPow2 rounds n up to the next power of two (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
