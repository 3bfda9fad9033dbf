package core

import (
	"testing"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
)

// TestNamerResourceZeroAllocs: the warm naming path must not allocate — the
// whole point of the name cache is that the per-lock-call cost of naming is
// a hash and a map probe.
func TestNamerResourceZeroAllocs(t *testing.T) {
	nm := NewNamer(store.PaperDatabase().Catalog(), true)
	n := DataNode(store.P("cells", "c1", "robots", "r1", "trajectory"))
	if _, err := nm.Resource(n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := nm.Resource(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Resource allocates %.1f objects/op on the warm path, want 0", allocs)
	}
}

// TestNamerChainZeroAllocs covers the protocol-facing entry point: resource,
// ancestors and classification in one warm lookup, allocation-free.
func TestNamerChainZeroAllocs(t *testing.T) {
	nm := NewNamer(store.PaperDatabase().Catalog(), false)
	n := DataNode(store.P("cells", "c1", "robots", "r1"))
	if _, _, err := nm.chain(n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := nm.chain(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("chain allocates %.1f objects/op on the warm path, want 0", allocs)
	}
}

// TestNamerCacheMatchesUncached: the cached namer must agree byte-for-byte
// with the legacy schema walk, for both BLU-coalescing modes.
func TestNamerCacheMatchesUncached(t *testing.T) {
	paths := []store.Path{
		store.P("cells"),
		store.P("cells", "c1"),
		store.P("cells", "c1", "robots"),
		store.P("cells", "c1", "robots", "r1"),
		store.P("cells", "c1", "robots", "r1", "trajectory"),
		store.P("cells", "c1", "robots", "r1", "effectors"),
		store.P("cells", "c1", "c_objects", "o1"),
		store.P("effectors", "e2"),
		store.P("effectors", "e2", "tool"),
	}
	for _, coalesce := range []bool{false, true} {
		cached := NewNamer(store.PaperDatabase().Catalog(), coalesce)
		legacy := NewNamer(store.PaperDatabase().Catalog(), coalesce)
		legacy.DisableCache()
		for _, p := range paths {
			n := DataNode(p)
			cr, cerr := cached.Resource(n)
			lr, lerr := legacy.Resource(n)
			if cr != lr || (cerr == nil) != (lerr == nil) {
				t.Errorf("coalesce=%v %v: cached (%q, %v) != legacy (%q, %v)",
					coalesce, p, cr, cerr, lr, lerr)
			}
			// The protocol-facing chain, cached and uncached, must equal the
			// legacy walk: Ancestors mapped through Resource.
			ancNodes, aerr := legacy.Ancestors(n)
			if aerr != nil {
				t.Fatalf("coalesce=%v %v: Ancestors: %v", coalesce, p, aerr)
			}
			want := make([]lock.Resource, len(ancNodes))
			for i, a := range ancNodes {
				want[i] = legacy.MustResource(a)
			}
			for _, nm := range []*Namer{cached, legacy} {
				res, anc, err := nm.chain(n)
				if (err == nil) != (lerr == nil) || (err == nil && res != lr) {
					t.Errorf("coalesce=%v nocache=%v %v: chain resource (%q, %v), want (%q, %v)",
						coalesce, nm.nocache, p, res, err, lr, lerr)
				}
				if err != nil {
					continue
				}
				if len(anc) != len(want) {
					t.Errorf("coalesce=%v nocache=%v %v: ancestors %v, want %v", coalesce, nm.nocache, p, anc, want)
					continue
				}
				for i := range anc {
					if anc[i] != want[i] {
						t.Errorf("coalesce=%v nocache=%v %v: ancestor %d: %q, want %q", coalesce, nm.nocache, p, i, anc[i], want[i])
					}
				}
			}
		}
	}
}

// TestNamerUnknownRelationNotCached: naming errors for unknown relations
// must not be cached — the catalog is add-only DDL, so a relation may exist
// on the next call.
func TestNamerUnknownRelationNotCached(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	n := DataNode(store.P("widgets", "w1"))
	if _, err := nm.Resource(n); err == nil {
		t.Fatal("expected unknown-relation error")
	}
	if err := st.Catalog().AddRelation(&schema.Relation{
		Name:    "widgets",
		Segment: "seg1",
		Key:     "widget_id",
		Type:    schema.Tuple(schema.F("widget_id", schema.Str())),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.Resource(n); err != nil {
		t.Errorf("unknown-relation error was cached across DDL: %v", err)
	}
}

// BenchmarkNamerResource measures the warm naming path; run with -benchmem
// to confirm 0 allocs/op (satellite requirement of the fast-path PR).
func BenchmarkNamerResource(b *testing.B) {
	nm := NewNamer(store.PaperDatabase().Catalog(), true)
	n := DataNode(store.P("cells", "c1", "robots", "r1", "trajectory"))
	if _, err := nm.Resource(n); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.Resource(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNamerResourceUncached is the contrast: the legacy schema walk
// rebuilds the name (and its ancestor slice on demand) every call.
func BenchmarkNamerResourceUncached(b *testing.B) {
	nm := NewNamer(store.PaperDatabase().Catalog(), true)
	nm.DisableCache()
	n := DataNode(store.P("cells", "c1", "robots", "r1", "trajectory"))
	if _, err := nm.Resource(n); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.Resource(n); err != nil {
			b.Fatal(err)
		}
	}
}
