package core

import (
	"sync"

	"colock/internal/lock"
)

// The per-transaction granted-mode cache: the fast path that makes repeated
// intention locking nearly free. The protocol's rule 5 re-acquires the whole
// ancestor spine for every fine-grained lock; after the first acquisition
// the manager would answer every one of those requests with a regrant. The
// cache remembers what the manager already granted, so a covering IS/IX
// re-request skips the manager (shard latch, entry lookup, tracer) entirely.
//
// Correctness rests on three rules:
//
//   - Only grants the manager actually made are noted, and only AFTER the
//     manager returned success.
//   - Cache hits serve IS/IX requests only. S/X node locks always run the
//     full protocol, because granting S/X implies downward propagation over
//     the store's CURRENT reference structure — a cached answer would skip
//     the re-scan. (Cached S/X grants still serve later IS/IX requests:
//     the held coarse mode covers the intention modes.)
//   - Any operation that can retract a grant — Release, ReleaseAll,
//     Downgrade (and therefore DeEscalate and Unlock, which are built on
//     them) — drops the transaction's ENTIRE cache, via the manager's
//     OnRelease callback. Whole-txn invalidation instead of per-resource
//     bookkeeping keeps the hook O(1); early release is rare, the fast path
//     is not.
//
// A durable ("long") request is never served by a non-durable cached grant:
// covers demands the cached entry be durable too, so the manager sees the
// request and upgrades the held lock.
//
// Concurrency: a Txn is used by one goroutine at a time (see internal/txn),
// so a transaction's reads and notes do not race with each other; the
// per-transaction mutex makes the cache safe anyway against cross-goroutine
// invalidation (e.g. an operator releasing a foreign transaction's locks).

// grantCacheShards stripes the txn→cache registry; TxnIDs are sequential,
// so the low bits spread perfectly.
const grantCacheShards = 64

// grantCache maps transactions to their cached granted modes.
type grantCache struct {
	shards [grantCacheShards]grantCacheShard
}

type grantCacheShard struct {
	mu   sync.Mutex
	txns map[lock.TxnID]*txnGrants
}

// txnGrants is one transaction's cached grants. After invalidation the
// struct is detached: covers misses and note no-ops, so a lock call that
// raced the invalidation falls through to the manager (correct, just slow).
type txnGrants struct {
	mu       sync.Mutex
	detached bool
	m        map[lock.Resource]cachedGrant
}

type cachedGrant struct {
	mode    lock.Mode
	durable bool
}

func newGrantCache() *grantCache {
	gc := &grantCache{}
	for i := range gc.shards {
		gc.shards[i].txns = make(map[lock.TxnID]*txnGrants)
	}
	return gc
}

// maxPooledGrants caps the size of a grant map that is recycled. Go maps
// never shrink, so a map that once held more is left to the collector: one
// huge transaction must not pin its buckets in the pool.
const maxPooledGrants = 256

// grantMapPool recycles the grant maps of invalidated caches. Only the map
// is pooled, never the txnGrants: a lock call that raced invalidation may
// still hold the detached struct.
var grantMapPool = sync.Pool{New: func() any {
	return make(map[lock.Resource]cachedGrant, 16)
}}

// get returns txn's cache, creating it on first use.
func (gc *grantCache) get(txn lock.TxnID) *txnGrants {
	s := &gc.shards[uint64(txn)%grantCacheShards]
	s.mu.Lock()
	tg := s.txns[txn]
	if tg == nil {
		tg = &txnGrants{m: grantMapPool.Get().(map[lock.Resource]cachedGrant)}
		s.txns[txn] = tg
	}
	s.mu.Unlock()
	return tg
}

// invalidate drops txn's entire cache. Registered as the lock manager's
// OnRelease callback, so it runs (with no manager latch held) after every
// Release, ReleaseAll and Downgrade that retracted coverage. The map goes
// back to the pool exactly once: only the call that removed tg from its
// shard reaches it, and it sets tg.m to nil under tg.mu first, so a racing
// covers or note sees a nil map, never the recycled one.
func (gc *grantCache) invalidate(txn lock.TxnID) {
	s := &gc.shards[uint64(txn)%grantCacheShards]
	s.mu.Lock()
	tg := s.txns[txn]
	delete(s.txns, txn)
	s.mu.Unlock()
	if tg != nil {
		tg.mu.Lock()
		m := tg.m
		tg.detached = true
		tg.m = nil
		// Grants are only ever added, so len(m) is the map's peak size.
		if m != nil && len(m) <= maxPooledGrants {
			clear(m)
			grantMapPool.Put(m)
		}
		tg.mu.Unlock()
	}
}

// covers reports whether the cache holds a grant covering mode on r. A
// durable request requires a durable cached grant.
func (tg *txnGrants) covers(r lock.Resource, mode lock.Mode, durable bool) bool {
	tg.mu.Lock()
	g, ok := tg.m[r]
	tg.mu.Unlock()
	return ok && g.mode.Covers(mode) && (!durable || g.durable)
}

// note records a grant the manager just made. Nil-safe (fast path disabled)
// and a no-op on a detached cache.
func (tg *txnGrants) note(r lock.Resource, mode lock.Mode, durable bool) {
	if tg == nil {
		return
	}
	tg.mu.Lock()
	if !tg.detached {
		g := tg.m[r]
		tg.m[r] = cachedGrant{mode: lock.Sup(g.mode, mode), durable: g.durable || durable}
	}
	tg.mu.Unlock()
}
