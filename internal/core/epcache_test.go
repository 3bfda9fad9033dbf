package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/store"
)

// Coherence tests for the entry-point cache (Protocol.entryPoints): a
// cached answer must always equal what a fresh walk over the store would
// return, whatever reference mutations happen between lock calls.

func effectorTuple(id string) *store.Tuple {
	return store.NewTuple().Set("eff_id", store.Str(id)).Set("tool", store.Str("t-"+id))
}

func cellTuple(id string, effs ...string) *store.Tuple {
	set := store.NewSet()
	for _, e := range effs {
		set.Add(e, store.Ref{Relation: "effectors", Key: e})
	}
	return store.NewTuple().
		Set("cell_id", store.Str(id)).
		Set("c_objects", store.NewSet()).
		Set("robots", store.NewList().Append("r1", store.NewTuple().
			Set("robot_id", store.Str("r1")).
			Set("trajectory", store.Str("tr")).
			Set("effectors", set)))
}

// heldSeq renders a transaction's locks in acquisition order.
func heldSeq(p *Protocol, txn lock.TxnID) string {
	var b strings.Builder
	for _, h := range p.Manager().HeldLocks(txn) {
		fmt.Fprintf(&b, "%s:%v ", h.Resource, h.Mode)
	}
	return b.String()
}

// TestEntryPointCacheMatchesUncached runs seeded random interleavings of
// reference mutations and S/X LockPaths against two identical setups, one
// with the name (and entry-point) cache and one with DisableCache. After
// every lock the two transactions must hold the same locks, acquired in
// the same order.
func TestEntryPointCacheMatchesUncached(t *testing.T) {
	lockPaths := []store.Path{
		store.P("cells", "c1"),
		store.P("cells", "c1", "robots"),
		store.P("cells", "c1", "robots", "r1"),
		store.P("cells", "c1", "robots", "r2"),
		store.P("cells", "c1", "robots", "r1", "effectors"),
		store.P("cells", "c1", "robots", "r2", "effectors", "e2"),
		store.P("cells", "c2"),
		store.P("cells", "c2", "robots", "r1"),
		store.P("effectors", "e1"),
		store.P("effectors"),
	}
	effs := []string{"e1", "e2", "e3", "e4"}
	robots := []store.Path{
		store.P("cells", "c1", "robots", "r1", "effectors"),
		store.P("cells", "c1", "robots", "r2", "effectors"),
		store.P("cells", "c2", "robots", "r1", "effectors"),
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		auth := authz.NewTable(false)
		opts := Options{Rule4Prime: seed%2 == 0, Authorizer: auth}
		var sides [2]*Protocol
		var stores [2]*store.Store
		for i := range sides {
			st := store.PaperDatabase()
			nm := NewNamer(st.Catalog(), false)
			if i == 1 {
				nm.DisableCache()
			}
			sides[i] = NewProtocol(lock.NewManager(lock.Options{}), st, nm, opts)
			stores[i] = st
		}
		snap, err := stores[0].EncodeData()
		if err != nil {
			t.Fatal(err)
		}
		// mutate applies one random mutation to both stores; the outcomes
		// (error or not) must agree too.
		mutate := func() string {
			e := effs[rng.Intn(len(effs))]
			r := robots[rng.Intn(len(robots))]
			var desc string
			var errs [2]error
			switch rng.Intn(9) {
			case 0:
				desc = "add ref " + r.String() + "/" + e
				for i, st := range stores {
					errs[i] = st.AddElem(r, e, store.Ref{Relation: "effectors", Key: e})
				}
			case 1:
				desc = "remove ref " + r.String() + "/" + e
				for i, st := range stores {
					_, errs[i] = st.RemoveElem(r, e)
				}
			case 2:
				desc = "delete effector " + e
				for _, st := range stores {
					st.Delete("effectors", e)
				}
			case 3:
				desc = "insert effector " + e
				for i, st := range stores {
					errs[i] = st.Insert("effectors", e, effectorTuple(e))
				}
			case 4:
				desc = "retarget " + r.String() + "/" + e
				to := effs[rng.Intn(len(effs))]
				for i, st := range stores {
					_, errs[i] = st.SetAtomic(r.Child(e), store.Ref{Relation: "effectors", Key: to})
				}
			case 5:
				desc = "set trajectory"
				for i, st := range stores {
					_, errs[i] = st.SetAtomic(store.P("cells", "c1", "robots", "r1", "trajectory"), store.Str(desc))
				}
			case 6:
				desc = "insert cell c2"
				for i, st := range stores {
					errs[i] = st.Insert("cells", "c2", cellTuple("c2", e))
				}
			case 7:
				desc = "delete cell c2"
				for _, st := range stores {
					st.Delete("cells", "c2")
				}
			case 8:
				desc = "restore"
				for i, st := range stores {
					errs[i] = st.RestoreData(snap)
				}
				if rng.Intn(2) == 0 {
					// The next restore may be of a state with dangling
					// references, which exercises the rollback.
					if snap, err = stores[0].EncodeData(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("seed %d: %s: cached store %v, uncached store %v", seed, desc, errs[0], errs[1])
			}
			return desc
		}
		txn := lock.TxnID(1)
		var trail []string
		for step := 0; step < 300; step++ {
			if rng.Intn(3) == 0 {
				trail = append(trail, mutate())
				continue
			}
			if rng.Intn(8) == 0 {
				for _, p := range sides {
					p.Release(txn)
				}
				txn++
				if rng.Intn(2) == 0 {
					auth.Grant(txn, "effectors")
				}
			}
			path := lockPaths[rng.Intn(len(lockPaths))]
			mode := lock.S
			if rng.Intn(2) == 0 {
				mode = lock.X
			}
			trail = append(trail, fmt.Sprintf("txn %d %v %s", txn, mode, path))
			var errs [2]error
			for i, p := range sides {
				errs[i] = p.LockPath(txn, path, mode)
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("seed %d step %d: cached %v, uncached %v", seed, step, errs[0], errs[1])
			}
			if got, want := heldSeq(sides[0], txn), heldSeq(sides[1], txn); got != want {
				t.Fatalf("seed %d step %d: held locks differ\ncached:   %s\nuncached: %s\ntrail: %s",
					seed, step, got, want, strings.Join(trail, "; "))
			}
		}
		if sides[0].Stats().EntryPointScans >= sides[1].Stats().EntryPointScans {
			t.Errorf("seed %d: cached side walked %d times, uncached %d: the cache never hit",
				seed, sides[0].Stats().EntryPointScans, sides[1].Stats().EntryPointScans)
		}
	}
}

// TestEntryPointCacheSharedNamer shares one Namer between protocols over two
// stores whose references differ but whose reference generations are equal:
// each protocol must propagate into its own store's targets, so the cache
// stamp has to name the store, not just the generation.
func TestEntryPointCacheSharedNamer(t *testing.T) {
	stA, stB := store.PaperDatabase(), store.PaperDatabase()
	ref := store.P("cells", "c1", "robots", "r1", "effectors", "e1")
	if _, err := stA.SetAtomic(ref, store.Ref{Relation: "effectors", Key: "e1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := stB.SetAtomic(ref, store.Ref{Relation: "effectors", Key: "e3"}); err != nil {
		t.Fatal(err)
	}
	if stA.RefGen() != stB.RefGen() {
		t.Fatalf("setup: generations %d and %d differ", stA.RefGen(), stB.RefGen())
	}
	nm := NewNamer(stA.Catalog(), false)
	pA := NewProtocol(lock.NewManager(lock.Options{}), stA, nm, Options{})
	pB := NewProtocol(lock.NewManager(lock.Options{}), stB, nm, Options{})
	r1 := store.P("cells", "c1", "robots", "r1")
	e1 := string(nm.MustResource(DataNode(store.P("effectors", "e1"))))
	e3 := string(nm.MustResource(DataNode(store.P("effectors", "e3"))))
	for txn := lock.TxnID(1); txn <= 2; txn++ {
		for _, c := range []struct {
			p         *Protocol
			want, not string
		}{{pA, e1, e3}, {pB, e3, e1}, {pA, e1, e3}} {
			if err := c.p.LockPath(txn, r1, lock.S); err != nil {
				t.Fatal(err)
			}
			held := heldMap(t, c.p, txn)
			if held[c.want] != lock.S || held[c.not] != lock.None {
				t.Errorf("txn %d: want S on %s and nothing on %s, hold %v", txn, c.want, c.not, held)
			}
			c.p.Release(txn)
		}
	}
}

// TestEntryPointCacheSeesMutation warms the cache with an S lock, applies
// one reference mutation, and checks that the next S lock propagates into
// the reference added (or no longer into the one removed).
func TestEntryPointCacheSeesMutation(t *testing.T) {
	r1 := store.P("cells", "c1", "robots", "r1")
	r1effs := r1.Child("effectors")
	for _, c := range []struct {
		name   string
		node   store.Path
		target string // effector key whose lock must appear or vanish
		before bool   // whether the warm lock holds the target
		mutate func(st *store.Store) error
	}{
		{"Insert", store.P("cells", "c2"), "e3", false, func(st *store.Store) error {
			return st.Insert("cells", "c2", cellTuple("c2", "e3"))
		}},
		{"Delete", store.P("cells", "c1"), "e1", true, func(st *store.Store) error {
			st.Delete("cells", "c1")
			return nil
		}},
		{"AddElem", r1, "e3", false, func(st *store.Store) error {
			return st.AddElem(r1effs, "e3", store.Ref{Relation: "effectors", Key: "e3"})
		}},
		{"RemoveElem", r1, "e1", true, func(st *store.Store) error {
			_, err := st.RemoveElem(r1effs, "e1")
			return err
		}},
		{"SetAtomic", r1, "e3", false, func(st *store.Store) error {
			_, err := st.SetAtomic(r1effs.Child("e1"), store.Ref{Relation: "effectors", Key: "e3"})
			return err
		}},
		{"RestoreData", r1, "e3", false, func(st *store.Store) error {
			other := store.PaperDatabase()
			if err := other.AddElem(r1effs, "e3", store.Ref{Relation: "effectors", Key: "e3"}); err != nil {
				return err
			}
			data, err := other.EncodeData()
			if err != nil {
				return err
			}
			return st.RestoreData(data)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, st := newProto(t, Options{})
			target := string(p.Namer().MustResource(DataNode(store.P("effectors", c.target))))
			check := func(txn lock.TxnID, want bool) {
				t.Helper()
				if err := p.LockPath(txn, c.node, lock.S); err != nil {
					t.Fatal(err)
				}
				if held := heldMap(t, p, txn); (held[target] == lock.S) != want {
					t.Errorf("txn %d: S on %s = %v, want %v; hold %v", txn, target, held[target] == lock.S, want, held)
				}
				p.Release(txn)
			}
			check(1, c.before)
			check(2, c.before) // served from the warm cache
			if err := c.mutate(st); err != nil {
				t.Fatal(err)
			}
			check(3, !c.before)
		})
	}
}

// TestEntryPointScansCountWalks: EntryPointScans counts the store walks
// actually performed, so cache hits do not count, and a plain attribute
// update leaves the cache warm.
func TestEntryPointScansCountWalks(t *testing.T) {
	p, st := newProto(t, Options{})
	r1 := store.P("cells", "c1", "robots", "r1")
	lockOnce := func(txn lock.TxnID) uint64 {
		t.Helper()
		before := p.Stats()
		if err := p.LockPath(txn, r1, lock.S); err != nil {
			t.Fatal(err)
		}
		after := p.Stats()
		p.Release(txn)
		if d := after.DownwardPropagations - before.DownwardPropagations; d != 2 {
			t.Errorf("txn %d: %d downward propagations, want 2 (e1, e2)", txn, d)
		}
		return after.EntryPointScans - before.EntryPointScans
	}
	if n := lockOnce(1); n != 3 {
		t.Errorf("cold lock walked %d times, want 3 (r1, e1, e2)", n)
	}
	if n := lockOnce(2); n != 0 {
		t.Errorf("warm lock walked %d times, want 0", n)
	}
	if _, err := st.SetAtomic(r1.Child("trajectory"), store.Str("moved")); err != nil {
		t.Fatal(err)
	}
	if n := lockOnce(3); n != 0 {
		t.Errorf("lock after a plain attribute update walked %d times, want 0", n)
	}
	if _, err := st.RemoveElem(r1.Child("effectors"), "e2"); err != nil {
		t.Fatal(err)
	}
	if err := st.AddElem(r1.Child("effectors"), "e2", store.Ref{Relation: "effectors", Key: "e2"}); err != nil {
		t.Fatal(err)
	}
	if n := lockOnce(4); n != 3 {
		t.Errorf("lock after a reference mutation walked %d times, want 3", n)
	}
}

// TestEntryPointCacheConcurrent locks through the cache from several
// goroutines while another one adds and removes a reference, for the race
// detector; once the mutations stop, the next lock must see the final
// reference structure.
func TestEntryPointCacheConcurrent(t *testing.T) {
	p, st := newProto(t, Options{})
	r1 := store.P("cells", "c1", "robots", "r1")
	effs := r1.Child("effectors")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn := lock.TxnID(1 + g*1000 + i)
				if err := p.LockPath(txn, r1, lock.S); err != nil {
					t.Error(err)
				}
				p.Release(txn)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := st.AddElem(effs, "e3", store.Ref{Relation: "effectors", Key: "e3"}); err != nil {
				t.Error(err)
			}
			if _, err := st.RemoveElem(effs, "e3"); err != nil {
				t.Error(err)
			}
		}
		if err := st.AddElem(effs, "e3", store.Ref{Relation: "effectors", Key: "e3"}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if err := p.LockPath(9999, r1, lock.S); err != nil {
		t.Fatal(err)
	}
	e3 := string(p.Namer().MustResource(DataNode(store.P("effectors", "e3"))))
	if held := heldMap(t, p, 9999); held[e3] != lock.S {
		t.Errorf("after the mutations, S on r1 does not propagate into e3: %v", held)
	}
}

// BenchmarkLockAfterRefMutation measures S locks on cell c1, whose subtree
// references effectors e1–e3, one transaction per lock. In "miss" every
// lock follows an AddElem or RemoveElem of r1's reference to e3, so the
// reference generation has always moved and every lock walks the store:
// the entry-point cache's worst case. "hit" takes the same locks with no
// mutations in between. The benchmark uses only the store and protocol
// APIs, so it runs unchanged on code without the cache, for comparison.
func BenchmarkLockAfterRefMutation(b *testing.B) {
	c1 := store.P("cells", "c1")
	effs := store.P("cells", "c1", "robots", "r1", "effectors")
	for _, miss := range []bool{true, false} {
		name := "hit"
		if miss {
			name = "miss"
		}
		b.Run(name, func(b *testing.B) {
			st := store.PaperDatabase()
			p := NewProtocol(lock.NewManager(lock.Options{}), st, NewNamer(st.Catalog(), false), Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if miss {
					var err error
					if i%2 == 0 {
						err = st.AddElem(effs, "e3", store.Ref{Relation: "effectors", Key: "e3"})
					} else {
						_, err = st.RemoveElem(effs, "e3")
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				txn := lock.TxnID(i + 1)
				if err := p.LockPath(txn, c1, lock.S); err != nil {
					b.Fatal(err)
				}
				p.Release(txn)
			}
		})
	}
}
