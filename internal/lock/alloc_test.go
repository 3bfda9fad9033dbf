package lock

import (
	"context"
	"fmt"
	"testing"
)

// TestAcquireReleaseAllAllocs caps one transaction's lock bookkeeping: an
// IS/IX/X spine acquired one call at a time and released by ReleaseAll.
// The held-lock set and the sweep buffer come from pools, which -race
// empties at random, so the test skips in race builds.
func TestAcquireReleaseAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := NewManager(Options{})
	ctx := context.Background()
	spine := []struct {
		r    Resource
		mode Mode
	}{{"db", IX}, {"db/seg", IX}, {"db/seg/cells", IX}, {"db/seg/cells/c1", IX}, {"db/seg/cells/c1/robots/r1", X}}
	cycle := func() {
		for _, s := range spine {
			if err := m.AcquireCtx(ctx, 1, s.r, s.mode); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(1)
	}
	cycle() // warm the entry, waiter and held-set pools
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("%.0f allocs", allocs)
	if allocs > 0 {
		t.Errorf("acquire/ReleaseAll cycle allocates %.0f objects, want 0", allocs)
	}
	if n := m.LockCount(); n != 0 {
		t.Errorf("LockCount = %d after ReleaseAll, want 0", n)
	}
}

// TestHeldSetRecycling: a transaction's held set goes back to the pool only
// when its last lock leaves, and only if it never grew past maxPooledHeld;
// a recycled set carries nothing into the next transaction.
func TestHeldSetRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := NewManager(Options{})
	ctx := context.Background()
	for _, tc := range []struct {
		locks  int
		pooled bool
	}{{maxPooledHeld, true}, {maxPooledHeld + 1, false}} {
		for i := 0; i < tc.locks; i++ {
			if err := m.AcquireCtx(ctx, 1, Resource(fmt.Sprint("r", i)), S); err != nil {
				t.Fatal(err)
			}
		}
		ts := m.txnShardFor(1)
		ts.mu.Lock()
		set := ts.held[1]
		ts.mu.Unlock()
		m.Release(1, "r0")
		if !m.TxnActive(1) {
			t.Fatalf("%d locks: txn inactive while it still holds locks", tc.locks)
		}
		m.ReleaseAll(1)
		got := heldSetPool.Get().(*heldSet)
		if reused := got == set; reused != tc.pooled {
			t.Errorf("%d locks: held set pooled = %v, want %v", tc.locks, reused, tc.pooled)
		}
		if len(got.m) != 0 || got.big {
			t.Errorf("%d locks: pooled set holds %d resources (big %v)", tc.locks, len(got.m), got.big)
		}
	}
	if err := m.AcquireCtx(ctx, 2, "fresh", S); err != nil {
		t.Fatal(err)
	}
	if held := m.HeldLocks(2); len(held) != 1 || held[0].Resource != "fresh" {
		t.Errorf("HeldLocks(2) = %v, want only fresh", held)
	}
}
