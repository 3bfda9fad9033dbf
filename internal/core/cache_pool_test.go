package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"colock/internal/lock"
)

// TestGrantMapNotReusedByStaleCache: a lock call that raced invalidation
// keeps the detached txnGrants. Neither its notes nor its covers may reach
// the map that invalidation handed to the pool and a later transaction now
// uses (under -race, any shared access is also reported as a race).
func TestGrantMapNotReusedByStaleCache(t *testing.T) {
	gc := newGrantCache()
	for round := 0; round < 200; round++ {
		txn := lock.TxnID(2 * round)
		stale := gc.get(txn)
		stale.note("db", lock.IS, false)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				stale.note(lock.Resource(fmt.Sprint("r", i)), lock.IX, false)
				stale.covers("seg", lock.IS, false)
			}
		}()
		gc.invalidate(txn)
		fresh := gc.get(txn + 1)
		fresh.note("seg", lock.IX, false)
		wg.Wait()
		if stale.covers("db", lock.IS, false) || stale.covers("seg", lock.IS, false) {
			t.Fatal("detached cache still covers a grant")
		}
		fresh.mu.Lock()
		n := len(fresh.m)
		fresh.mu.Unlock()
		if n != 1 {
			t.Fatalf("round %d: new transaction's cache holds %d grants, want its own 1", round, n)
		}
		gc.invalidate(txn + 1)
	}
}

// TestOversizedGrantMapNotPooled: a map that grew past maxPooledGrants is
// left to the collector, so one huge transaction cannot pin its buckets.
func TestOversizedGrantMapNotPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	gc := newGrantCache()
	for _, tc := range []struct {
		grants int
		pooled bool
	}{{maxPooledGrants, true}, {maxPooledGrants + 1, false}} {
		tg := gc.get(1)
		for i := 0; i < tc.grants; i++ {
			tg.note(lock.Resource(fmt.Sprint("r", i)), lock.IS, false)
		}
		m := reflect.ValueOf(tg.m).UnsafePointer()
		gc.invalidate(1)
		got := grantMapPool.Get().(map[lock.Resource]cachedGrant)
		if reused := reflect.ValueOf(got).UnsafePointer() == m; reused != tc.pooled {
			t.Errorf("%d grants: map pooled = %v, want %v", tc.grants, reused, tc.pooled)
		}
		if len(got) != 0 {
			t.Errorf("%d grants: pooled map holds %d stale grants", tc.grants, len(got))
		}
	}
}
