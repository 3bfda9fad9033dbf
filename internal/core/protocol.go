package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
)

// Protocol implements the paper's lock protocol for object-specific lock
// graphs (§4.4.2), rules 1–5 plus the authorization-aware rule 4′:
//
//   - IS/IX on a non-root node requires (at least) IS/IX on all immediate
//     parents; requesting a lock acquires the whole ancestor chain
//     root-to-leaf (rule 5).
//   - Locking the root of an inner unit (an entry point) triggers implicit
//     upward propagation: the concurrency-control manager intention-locks
//     the entry point's immediate parents up to the root of its superunit.
//   - Granting S or X on a node first S/X-locks the entry points of all
//     lower (dependent) inner units accessible via the node — implicit
//     downward propagation, which makes locks on shared data visible to
//     transactions arriving "from the side".
//   - Rule 4′: during downward propagation of an X request, inner units the
//     transaction is not authorized to modify are locked S instead of X.
//
// The protocol issues only the paper's four modes (IS, IX, S, X).
type Protocol struct {
	nm   *Namer
	mgr  *lock.Manager
	st   *store.Store
	auth authz.Authorizer

	// rule4Prime enables the authorization cooperation of rule 4′. With it
	// disabled (or with an AllowAll authorizer) the protocol behaves as the
	// plain rule 4: X requests propagate X onto every dependent entry
	// point.
	rule4Prime bool

	// tr, when non-nil, records a span tree per user-level Lock call: the
	// root span is the call itself, children are the protocol's rule
	// applications (upward intention locks, downward propagations, the node
	// acquisition). Sampling is decided once per call; sampled-out calls
	// pay one atomic add.
	tr *trace.Recorder

	// gcache is the per-transaction granted-mode cache (nil when the fast
	// path is disabled); see cache.go. Invalidation is wired through the
	// manager's OnRelease callback in NewProtocol.
	gcache *grantCache

	// counters tallies rule applications; see ProtocolStats.
	counters protoCounters

	// onFastHit, when set, is notified once per grant-cache fast-path hit.
	// Cache hits never reach the lock manager, so they are invisible to
	// its event sinks; rate monitors hook here instead. See OnFastPathHit.
	onFastHit atomic.Pointer[func()]
}

// Options configures a Protocol.
type Options struct {
	// Authorizer supplies modify rights for rule 4′. nil defaults to
	// authz.AllowAll (every unit is modifiable).
	Authorizer authz.Authorizer
	// Rule4Prime enables authorization cooperation (§4.4.2.1, rule 4′).
	Rule4Prime bool
	// Tracer, when non-nil, records per-transaction span trees for every
	// sampled user-level lock call (see internal/trace).
	Tracer *trace.Recorder
	// DisableFastPath turns off the per-transaction granted-mode cache and
	// the batched ancestor acquisition, forcing every request through the
	// classic one-AcquireCtx-per-resource path. The benchmark baseline and
	// an escape hatch; see DESIGN.md §11.
	DisableFastPath bool
}

// NewProtocol builds a protocol instance over a lock manager, a store and a
// namer. The protocol's rule counters are registered with the manager's
// ResetStats cascade, so resetting the manager resets them too.
func NewProtocol(mgr *lock.Manager, st *store.Store, nm *Namer, opts Options) *Protocol {
	auth := opts.Authorizer
	if auth == nil {
		auth = authz.AllowAll{}
	}
	p := &Protocol{nm: nm, mgr: mgr, st: st, auth: auth, rule4Prime: opts.Rule4Prime, tr: opts.Tracer}
	if !opts.DisableFastPath {
		p.gcache = newGrantCache()
		mgr.OnRelease(p.gcache.invalidate)
	}
	mgr.OnResetStats(p.counters.reset)
	return p
}

// Manager exposes the underlying lock manager (for release, inspection and
// statistics).
func (p *Protocol) Manager() *lock.Manager { return p.mgr }

// Tracer exposes the span recorder (nil when tracing is off).
func (p *Protocol) Tracer() *trace.Recorder { return p.tr }

// OnFastPathHit registers fn to run once per grant-cache fast-path hit, on
// the requesting goroutine with no protocol or manager locks held. One hook
// slot: a second call replaces the first. fn must be cheap (an atomic add) —
// it sits on the hottest path the cache exists to keep short.
func (p *Protocol) OnFastPathHit(fn func()) {
	if fn == nil {
		return
	}
	p.onFastHit.Store(&fn)
}

// noteFastPathHit tallies one cache-served request and notifies the hook.
func (p *Protocol) noteFastPathHit() {
	p.counters.fastPathHits.Add(1)
	if f := p.onFastHit.Load(); f != nil {
		(*f)()
	}
}

// CanModify reports whether the authorization component grants txn the
// right to modify the relation. The query executor enforces it for
// modifying statements; the protocol itself only uses it for rule 4′.
func (p *Protocol) CanModify(txn lock.TxnID, relation string) bool {
	return p.auth.CanModify(txn, relation)
}

// Namer exposes the resource namer.
func (p *Protocol) Namer() *Namer { return p.nm }

// Lock acquires a lock of the given mode (IS, IX, S or X) on the node,
// following the protocol. It blocks until granted; a deadlock-victim error
// from the lock manager is returned unchanged and the transaction must
// abort.
func (p *Protocol) Lock(txn lock.TxnID, n Node, mode lock.Mode) error {
	return p.LockCtx(context.Background(), txn, n, mode)
}

// LockCtx is Lock with a context: a canceled or expired context withdraws
// the blocked lock-manager waiter and returns its error. Locks already
// acquired for earlier nodes of the protocol chain are NOT rolled back —
// the transaction must abort, exactly as after a deadlock victim error.
func (p *Protocol) LockCtx(ctx context.Context, txn lock.TxnID, n Node, mode lock.Mode) error {
	return p.lockOpts(ctx, txn, n, mode, false, false, 0)
}

// LockTimeout is Lock with a per-acquire deadline: every lock-manager
// acquisition of the protocol chain is withdrawn after d, returning an error
// wrapping lock.ErrTimeout. The timeout is per acquisition, not per call —
// the workstation-server "don't block forever behind a check-out lock" knob,
// and the trigger for automatic timeout incident dumps.
func (p *Protocol) LockTimeout(txn lock.TxnID, n Node, mode lock.Mode, d time.Duration) error {
	return p.lockOpts(context.Background(), txn, n, mode, false, false, d)
}

// LockLong is Lock with durable ("long") locks, as used for check-out in
// workstation–server environments.
func (p *Protocol) LockLong(txn lock.TxnID, n Node, mode lock.Mode) error {
	return p.LockLongCtx(context.Background(), txn, n, mode)
}

// LockLongCtx is LockLong with a context (see LockCtx).
func (p *Protocol) LockLongCtx(ctx context.Context, txn lock.TxnID, n Node, mode lock.Mode) error {
	return p.lockOpts(ctx, txn, n, mode, true, false, 0)
}

// LockPath is shorthand for Lock on a data node.
func (p *Protocol) LockPath(txn lock.TxnID, path store.Path, mode lock.Mode) error {
	return p.Lock(txn, DataNode(path), mode)
}

// LockPathCtx is shorthand for LockCtx on a data node.
func (p *Protocol) LockPathCtx(ctx context.Context, txn lock.TxnID, path store.Path, mode lock.Mode) error {
	return p.LockCtx(ctx, txn, DataNode(path), mode)
}

// LockNoFollow acquires the lock without implicit downward propagation into
// referenced common data. It exploits query semantics (§4.5 end): an
// operation that accesses references without accessing the referenced data —
// e.g. deleting a robot by a transaction without the right to delete
// effectors — needs "no locks on common data at all". The caller must
// guarantee the operation really never touches the referenced data.
func (p *Protocol) LockNoFollow(txn lock.TxnID, n Node, mode lock.Mode) error {
	return p.lockOpts(context.Background(), txn, n, mode, false, true, 0)
}

// LockWith is the unified acquisition entry point: one call expressing
// every option combination — context, durability, NOFOLLOW, per-acquisition
// timeout. The named wrappers above are each a fixed point in this option
// space; the txn layer's variadic-option Lock builds directly on LockWith.
func (p *Protocol) LockWith(ctx context.Context, txn lock.TxnID, n Node, mode lock.Mode, durable, noFollow bool, timeout time.Duration) error {
	return p.lockOpts(ctx, txn, n, mode, durable, noFollow, timeout)
}

func (p *Protocol) lockOpts(ctx context.Context, txn lock.TxnID, n Node, mode lock.Mode, durable, noFollow bool, timeout time.Duration) (err error) {
	p.counters.requests.Add(1)
	if noFollow {
		p.counters.noFollow.Add(1)
	}
	switch mode {
	case lock.IS, lock.IX, lock.S, lock.X:
	default:
		return fmt.Errorf("core: protocol mode must be IS, IX, S or X, got %v", mode)
	}
	// Resolve the node once: its name entry serves validation, the resource,
	// the ancestor chain and the entry-point cache.
	e, err := p.nm.entryOf(n)
	if err != nil {
		return err
	}
	if n.Level == LevelData && len(n.Path) >= 2 && e.infoErr != nil {
		// Validate the path against the schema; instances need not exist
		// (inserts lock their future resource), but the attribute shape
		// must be real.
		return e.infoErr
	}
	// Root span: one per sampled user-level lock call; children ride on the
	// root's decision (nil handle = inert).
	var sp *trace.SpanHandle
	if p.tr.Sample() {
		if res, _, rerr := p.nm.chainOf(n, e); rerr == nil {
			sp = p.tr.Start(txn, "lock", res, mode)
			defer func() { sp.End(err) }()
		}
	}
	// requested tracks the strongest mode already handled per resource
	// within this call, so that diamond-shaped sharing does not reprocess
	// entry points. Pooled: the map is cleared and reused across calls.
	requested := requestedPool.Get().(map[lock.Resource]lock.Mode)
	defer func() {
		clear(requested)
		requestedPool.Put(requested)
	}()
	// tg is the transaction's granted-mode cache handle, fetched once per
	// call (nil when the fast path is disabled).
	var tg *txnGrants
	if p.gcache != nil {
		tg = p.gcache.get(txn)
	}
	return p.lockRec(ctx, txn, n, e, mode, durable, noFollow, timeout, requested, tg, sp)
}

var requestedPool = sync.Pool{
	New: func() any { return make(map[lock.Resource]lock.Mode, 16) },
}

// lockRec runs the protocol for node n, already resolved to its name entry
// e by Namer.entryOf.
func (p *Protocol) lockRec(ctx context.Context, txn lock.TxnID, n Node, e *nameEntry, mode lock.Mode, durable, noFollow bool, timeout time.Duration, requested map[lock.Resource]lock.Mode, tg *txnGrants, sp *trace.SpanHandle) error {
	res, anc, err := p.nm.chainOf(n, e)
	if err != nil {
		return err
	}
	if prev, ok := requested[res]; ok && prev.Covers(mode) {
		p.counters.memoHits.Add(1)
		return nil
	}
	intent := mode.IntentionFor()
	// follow: granting S or X implies downward propagation (rules 3/4) —
	// those requests must run the full protocol below. Everything else
	// (IS/IX, or S/X with noFollow) is a pure chain acquisition, eligible
	// for the all-in-one batched fast path. Sampled calls (sp != nil) take
	// the classic per-resource path so the span tree keeps its per-resource
	// timing; a cache hit inside it emits no span (DESIGN.md §11).
	follow := (mode == lock.S || mode == lock.X) && !noFollow
	if tg != nil && sp == nil && !follow {
		return p.lockChainBatched(ctx, txn, res, anc, mode, intent, durable, timeout, requested, tg)
	}

	// Rules 1–4, upward part: intention-lock all immediate parents
	// root-to-leaf (rule 5 order). For entry points this is the "implicit
	// upward propagation" up to the root of the superunit; it never crosses
	// superunit boundaries because the ancestor chain is exactly the
	// superunit spine.
	if intent != lock.None {
		if tg != nil && sp == nil {
			if err := p.upwardBatched(ctx, txn, anc, intent, durable, timeout, requested, tg); err != nil {
				return err
			}
		} else {
			for _, ares := range anc {
				if prev, ok := requested[ares]; ok && prev.Covers(intent) {
					p.counters.memoHits.Add(1)
					continue
				}
				if tg != nil && tg.covers(ares, intent, durable) {
					// Granted-mode cache hit: the manager already holds a
					// covering lock for this txn; no manager call, no span.
					p.noteFastPathHit()
					requested[ares] = lock.Sup(requested[ares], intent)
					continue
				}
				c := sp.Child("upward", ares, intent)
				err = p.acquire(ctx, txn, ares, intent, durable, timeout)
				c.End(err)
				if err != nil {
					return err
				}
				p.counters.upwardLocks.Add(1)
				requested[ares] = lock.Sup(requested[ares], intent)
				tg.note(ares, intent, durable)
			}
		}
	}

	// Reserve the mode in the memo BEFORE propagating: with recursive
	// complex objects a reference cycle leads back to this node, and the
	// reservation terminates the recursion (the cycle member is then locked
	// on the way back up).
	reserved := requested[res]
	requested[res] = lock.Sup(reserved, mode)

	// Rules 3/4/4′, downward part: before granting S or X on the node, lock
	// the entry points of all lower (dependent) inner units accessible via
	// it. Downward propagation crosses superunit boundaries and recurses,
	// because common data may again contain common data.
	if follow {
		entries, err := p.entryPoints(n, e)
		if err != nil {
			return err
		}
		for _, ep := range entries {
			em := mode
			kind := "downward"
			if mode == lock.X && p.rule4Prime && !p.auth.CanModify(txn, ep.path[0]) {
				// Rule 4′: non-modifiable inner units are only S-locked.
				em = lock.S
				kind = "downward-rule4prime"
				p.counters.rule4Weakened.Add(1)
			}
			p.counters.downward.Add(1)
			// The downward span becomes the parent of the recursion's own
			// spans, so the tree mirrors the propagation structure.
			next := sp
			if sp != nil {
				next = sp.Child(kind, ep.res, em)
			}
			err := p.lockRec(ctx, txn, DataNode(ep.path), ep, em, durable, noFollow, timeout, requested, tg, next)
			if next != sp {
				next.End(err)
			}
			if err != nil {
				return err
			}
		}
	}

	// Final acquire on the node itself. An IS/IX request covered by the
	// granted-mode cache skips the manager (and emits no span); S/X always
	// goes to the manager, whose held-covers regrant path answers it.
	if tg != nil && mode.IsIntention() && tg.covers(res, mode, durable) {
		p.noteFastPathHit()
		return nil
	}
	c := sp.Child("acquire", res, mode)
	err = p.acquire(ctx, txn, res, mode, durable, timeout)
	c.End(err)
	if err != nil {
		return err
	}
	p.counters.nodeLocks.Add(1)
	tg.note(res, mode, durable)
	return nil
}

// upwardBatched services the upward half of rules 1–4 for unsampled calls
// with the fast path on: cache and memo hits are skipped without touching
// the manager, and whatever remains is acquired in ONE Manager.AcquireBatch
// call (root-to-leaf order preserved) instead of one AcquireCtx round-trip
// per ancestor.
func (p *Protocol) upwardBatched(ctx context.Context, txn lock.TxnID, anc []lock.Resource, intent lock.Mode, durable bool, timeout time.Duration, requested map[lock.Resource]lock.Mode, tg *txnGrants) error {
	// Pass 1 (hot): serve hits, count the manager-needing ancestors. The
	// batch slice is only allocated when something actually needs the
	// manager — the steady state allocates nothing.
	need := 0
	for _, ares := range anc {
		if prev, ok := requested[ares]; ok && prev.Covers(intent) {
			p.counters.memoHits.Add(1)
			continue
		}
		if tg.covers(ares, intent, durable) {
			// Deliberately NOT folded into requested: the cache answers any
			// later encounter the memo would, and skipping the map write
			// keeps the steady state free of per-call map traffic.
			p.noteFastPathHit()
			continue
		}
		need++
	}
	if need == 0 {
		return nil
	}
	// Pass 2 (cold): re-derive the manager-needing set pass 1 counted.
	reqs := make([]lock.BatchReq, 0, need)
	for _, ares := range anc {
		if prev, ok := requested[ares]; ok && prev.Covers(intent) {
			continue
		}
		if tg.covers(ares, intent, durable) {
			continue
		}
		reqs = append(reqs, lock.BatchReq{Resource: ares, Mode: intent})
	}
	if err := p.acquireBatch(ctx, txn, reqs, durable, timeout); err != nil {
		return err
	}
	p.counters.upwardLocks.Add(uint64(len(reqs)))
	p.counters.batchedLocks.Add(uint64(len(reqs)))
	for _, q := range reqs {
		requested[q.Resource] = lock.Sup(requested[q.Resource], intent)
		tg.note(q.Resource, intent, durable)
	}
	return nil
}

// lockChainBatched is the whole-call fast path for non-propagating requests
// (IS/IX, or S/X with noFollow): the ancestor chain AND the node's own lock
// are served from the caches and, for whatever is left, one AcquireBatch
// call. The common steady-state outcome — everything cached — performs zero
// manager calls and zero allocations.
func (p *Protocol) lockChainBatched(ctx context.Context, txn lock.TxnID, res lock.Resource, anc []lock.Resource, mode, intent lock.Mode, durable bool, timeout time.Duration, requested map[lock.Resource]lock.Mode, tg *txnGrants) error {
	need := 0
	if intent != lock.None {
		for _, ares := range anc {
			if prev, ok := requested[ares]; ok && prev.Covers(intent) {
				p.counters.memoHits.Add(1)
				continue
			}
			if tg.covers(ares, intent, durable) {
				p.noteFastPathHit()
				continue
			}
			need++
		}
	}
	// Only IS/IX node locks may be served from the cache; a cached S/X
	// answer would skip the downward re-scan — but this path is only taken
	// for noFollow S/X, where the caller asserted there is nothing to scan.
	// Keep S/X going to the manager anyway: noFollow is rare and the
	// manager's regrant answer is authoritative.
	nodeCached := mode.IsIntention() && tg.covers(res, mode, durable)
	if nodeCached {
		p.noteFastPathHit()
	} else {
		need++
		requested[res] = lock.Sup(requested[res], mode)
	}
	if need == 0 {
		return nil
	}
	reqs := make([]lock.BatchReq, 0, need)
	if intent != lock.None {
		for _, ares := range anc {
			if prev, ok := requested[ares]; ok && prev.Covers(intent) {
				continue
			}
			if tg.covers(ares, intent, durable) {
				continue
			}
			reqs = append(reqs, lock.BatchReq{Resource: ares, Mode: intent})
		}
	}
	if !nodeCached {
		reqs = append(reqs, lock.BatchReq{Resource: res, Mode: mode})
	}
	if err := p.acquireBatch(ctx, txn, reqs, durable, timeout); err != nil {
		return err
	}
	p.counters.batchedLocks.Add(uint64(len(reqs)))
	for _, q := range reqs {
		requested[q.Resource] = lock.Sup(requested[q.Resource], q.Mode)
		tg.note(q.Resource, q.Mode, durable)
	}
	if nodeCached {
		p.counters.upwardLocks.Add(uint64(len(reqs)))
	} else {
		p.counters.upwardLocks.Add(uint64(len(reqs) - 1))
		p.counters.nodeLocks.Add(1)
	}
	return nil
}

// acquireBatch forwards to Manager.AcquireBatch with the call's options.
func (p *Protocol) acquireBatch(ctx context.Context, txn lock.TxnID, reqs []lock.BatchReq, durable bool, timeout time.Duration) error {
	switch {
	case durable && timeout > 0:
		return p.mgr.AcquireBatch(ctx, txn, reqs, lock.WithDurable(), lock.WithTimeout(timeout))
	case durable:
		return p.mgr.AcquireBatch(ctx, txn, reqs, lock.WithDurable())
	case timeout > 0:
		return p.mgr.AcquireBatch(ctx, txn, reqs, lock.WithTimeout(timeout))
	default:
		return p.mgr.AcquireBatch(ctx, txn, reqs)
	}
}

func (p *Protocol) acquire(ctx context.Context, txn lock.TxnID, res lock.Resource, mode lock.Mode, durable bool, timeout time.Duration) error {
	switch {
	case durable && timeout > 0:
		return p.mgr.AcquireCtx(ctx, txn, res, mode, lock.WithDurable(), lock.WithTimeout(timeout))
	case durable:
		return p.mgr.AcquireCtx(ctx, txn, res, mode, lock.WithDurable())
	case timeout > 0:
		return p.mgr.AcquireCtx(ctx, txn, res, mode, lock.WithTimeout(timeout))
	default:
		return p.mgr.AcquireCtx(ctx, txn, res, mode)
	}
}

// Release drops all locks of a transaction (EOT, rule 5: "locks are
// released at the end of the transaction ... in any order").
func (p *Protocol) Release(txn lock.TxnID) { p.mgr.ReleaseAll(txn) }

// EffectiveMode returns the strongest mode the transaction holds on a node,
// explicitly or implicitly: an S or X lock on any node implicitly locks its
// descendants in the same mode (§3.1). Because resource names are the
// immediate-parent chains, implicit coverage is prefix coverage.
func (p *Protocol) EffectiveMode(txn lock.TxnID, n Node) (lock.Mode, error) {
	res, anc, err := p.nm.chain(n)
	if err != nil {
		return lock.None, err
	}
	best := p.mgr.HeldMode(txn, res)
	for _, ares := range anc {
		switch p.mgr.HeldMode(txn, ares) {
		case lock.S:
			best = lock.Sup(best, lock.S)
		case lock.X:
			best = lock.Sup(best, lock.X)
		case lock.SIX:
			best = lock.Sup(best, lock.S)
		}
	}
	return best, nil
}
