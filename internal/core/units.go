package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"colock/internal/store"
)

// Unit analysis (§4.4.1, Figure 6). A complex object's instance graph
// decomposes into one outer unit (its non-shared nodes plus the relation,
// segment and database ancestors) and the inner units it references (shared
// complex objects of other relations, recursively). The root of an inner
// unit is its entry point; a unit plus the immediate parents of its root up
// to the database node forms its superunit.

// InnerUnit describes one inner unit reachable from an object.
type InnerUnit struct {
	// EntryPoint is the root of the inner unit, e.g. effectors/e1.
	EntryPoint store.Path
	// Nodes are all instance nodes of the unit (entry point, its attribute
	// nodes, down to and including reference BLUs), in preorder.
	Nodes []store.Path
	// Superunit lists the immediate parents of the entry point up to and
	// including the database node, leaf-to-root: relation, segment,
	// database.
	Superunit []Node
	// ReferencedFrom lists the reference-BLU paths pointing at this entry
	// point from the analyzed object's units (sorted).
	ReferencedFrom []store.Path
	// Depth is 1 for units referenced directly from the outer unit, 2 for
	// units referenced from depth-1 units ("common data may again contain
	// common data", §2), and so on.
	Depth int
}

// ObjectUnits is the unit decomposition of one complex object.
type ObjectUnits struct {
	// Object is the complex-object root path, e.g. cells/c1.
	Object store.Path
	// OuterNodes are the nodes of the outer unit: database, segment,
	// relation, then every instance node of the object down to and
	// including reference BLUs (preorder).
	OuterNodes []Node
	// Inner are the inner units, sorted by (depth, entry point).
	Inner []InnerUnit
}

// ComputeUnits decomposes the complex object at path (relation/key) into its
// outer unit and all transitively reachable inner units.
func ComputeUnits(st *store.Store, nm *Namer, object store.Path) (*ObjectUnits, error) {
	if len(object) != 2 {
		return nil, fmt.Errorf("core: %q is not a complex-object path", object)
	}
	rel := nm.cat.Relation(object.Relation())
	if rel == nil {
		return nil, fmt.Errorf("core: unknown relation %q", object.Relation())
	}
	root := st.Get(object.Relation(), object.Key())
	if root == nil {
		return nil, fmt.Errorf("core: no object %q", object)
	}

	u := &ObjectUnits{Object: object.Clone()}
	u.OuterNodes = append(u.OuterNodes,
		DatabaseNode(), SegmentNode(rel.Segment), DataNode(store.P(object.Relation())))

	nodes, refs := unitNodes(st, object)
	for _, p := range nodes {
		u.OuterNodes = append(u.OuterNodes, DataNode(p))
	}

	// Breadth-first over referenced entry points, depth by depth.
	type pending struct {
		entry store.Path
		from  store.Path
	}
	seen := make(map[string]*InnerUnit)
	frontier := refs
	depth := 1
	for len(frontier) > 0 {
		var next []store.RefAt
		for _, r := range frontier {
			entry := store.P(r.Target.Relation, r.Target.Key)
			key := entry.String()
			if iu := seen[key]; iu != nil {
				iu.ReferencedFrom = append(iu.ReferencedFrom, r.Path.Clone())
				continue
			}
			trel := nm.cat.Relation(r.Target.Relation)
			if trel == nil {
				return nil, fmt.Errorf("core: reference at %q targets unknown relation %q", r.Path, r.Target.Relation)
			}
			if st.Get(r.Target.Relation, r.Target.Key) == nil {
				return nil, fmt.Errorf("core: dangling reference at %q to %q", r.Path, entry)
			}
			inNodes, inRefs := unitNodes(st, entry)
			iu := &InnerUnit{
				EntryPoint: entry,
				Nodes:      inNodes,
				Superunit: []Node{
					DataNode(store.P(r.Target.Relation)),
					SegmentNode(trel.Segment),
					DatabaseNode(),
				},
				ReferencedFrom: []store.Path{r.Path.Clone()},
				Depth:          depth,
			}
			seen[key] = iu
			next = append(next, inRefs...)
		}
		frontier = next
		depth++
	}

	for _, iu := range seen {
		sort.Slice(iu.ReferencedFrom, func(i, j int) bool {
			return iu.ReferencedFrom[i].String() < iu.ReferencedFrom[j].String()
		})
		u.Inner = append(u.Inner, *iu)
	}
	sort.Slice(u.Inner, func(i, j int) bool {
		if u.Inner[i].Depth != u.Inner[j].Depth {
			return u.Inner[i].Depth < u.Inner[j].Depth
		}
		return u.Inner[i].EntryPoint.String() < u.Inner[j].EntryPoint.String()
	})
	return u, nil
}

// unitNodes enumerates the instance nodes of the unit rooted at the given
// complex-object path: the root and all descendants in preorder, stopping at
// (but including) reference BLUs. It also returns the references found at
// the unit's boundary.
func unitNodes(st *store.Store, object store.Path) ([]store.Path, []store.RefAt) {
	var nodes []store.Path
	var refs []store.RefAt
	v, err := st.LookupClone(object)
	if err != nil {
		return nil, nil
	}
	var rec func(val store.Value, at store.Path)
	rec = func(val store.Value, at store.Path) {
		nodes = append(nodes, at.Clone())
		switch x := val.(type) {
		case store.Ref:
			refs = append(refs, store.RefAt{Path: at.Clone(), Target: x})
		case *store.Tuple:
			for _, n := range x.FieldNames() {
				rec(x.Get(n), at.Child(n))
			}
		case *store.Set:
			for _, id := range x.IDs() {
				rec(x.Get(id), at.Child(id))
			}
		case *store.List:
			for _, id := range x.IDs() {
				rec(x.Get(id), at.Child(id))
			}
		}
	}
	rec(v, object)
	return nodes, refs
}

// EntryPointsUnder returns the entry points of the inner units directly
// accessible via the node n: the distinct targets of all references in n's
// subtree, excluding targets that are themselves descendants of n in the
// lock hierarchy (those are already covered implicitly by a lock on n).
// The result is sorted for deterministic lock-acquisition order.
//
// This is the scan the protocol performs for implicit downward propagation;
// §4.4.2.1 argues it is cheap because "the affected inner units have to be
// accessed anyway to read the data during query execution".
func EntryPointsUnder(st *store.Store, nm *Namer, n Node) ([]store.Path, error) {
	var refs []store.RefAt
	switch n.Level {
	case LevelDatabase:
		// The database is the root of every superunit: everything is
		// implicitly covered, no propagation needed.
		return nil, nil
	case LevelSegment:
		for _, rel := range nm.cat.Relations() {
			if rel.Segment != n.Segment {
				continue
			}
			rs, err := relationRefs(st, rel.Name)
			if err != nil {
				return nil, err
			}
			refs = append(refs, rs...)
		}
		// Exclude targets stored in the same segment: they are descendants
		// of the segment node and implicitly covered.
		filtered := refs[:0]
		for _, r := range refs {
			trel := nm.cat.Relation(r.Target.Relation)
			if trel == nil {
				return nil, fmt.Errorf("core: unknown relation %q", r.Target.Relation)
			}
			if trel.Segment != n.Segment {
				filtered = append(filtered, r)
			}
		}
		refs = filtered
	case LevelRelation:
		rs, err := relationRefs(st, n.Path.Relation())
		if err != nil {
			return nil, err
		}
		refs = rs
	case LevelData:
		rs, err := st.Refs(n.Path)
		if err != nil {
			// A schema-valid path whose instance does not exist (yet) has no
			// dependent inner units — this happens when locking the resource
			// of an object about to be inserted.
			if nm.cat.Relation(n.Path.Relation()) == nil {
				return nil, err
			}
			return nil, nil
		}
		refs = rs
	}
	// Sort by the rendered path, computed once per reference, then drop
	// adjacent duplicates.
	type keyed struct {
		key string
		p   store.Path
	}
	if len(refs) == 0 {
		return nil, nil
	}
	ks := make([]keyed, 0, len(refs))
	for _, r := range refs {
		p := store.P(r.Target.Relation, r.Target.Key)
		// Targets inside the requested node's own subtree are already
		// implicitly covered by a lock on n — possible only with recursive
		// complex objects (a relation or object referencing itself).
		if (n.Level == LevelRelation || n.Level == LevelData) && p.HasPrefix(n.Path) {
			continue
		}
		ks = append(ks, keyed{p.String(), p})
	}
	if len(ks) == 0 {
		return nil, nil
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]store.Path, 0, len(ks))
	for i, k := range ks {
		if i == 0 || k.key != ks[i-1].key {
			out = append(out, k.p)
		}
	}
	return out, nil
}

// entryPoints returns EntryPointsUnder(n), resolved to name entries. For a
// data node with the name cache on, the result is cached on n's entry and
// reused while the store's reference generation is unchanged: the store
// bumps it under its write lock whenever a reference may appear or vanish,
// and the generation is read before the walk, so a mutation racing the walk
// can only leave the stamp stale, never wrong. The stamp names the store
// too, because one Namer may serve protocols over different stores.
// Database, segment and relation nodes always walk.
func (p *Protocol) entryPoints(n Node, e *nameEntry) ([]*nameEntry, error) {
	cacheable := n.Level == LevelData && !p.nm.nocache
	var gen uint64
	if cacheable {
		gen = p.st.RefGen()
		if c := e.eps.Load(); c != nil && c.st == p.st && c.gen == gen {
			return c.entries, nil
		}
	}
	p.counters.entryScans.Add(1)
	paths, err := EntryPointsUnder(p.st, p.nm, n)
	if err != nil {
		return nil, err
	}
	entries := make([]*nameEntry, len(paths))
	for i, ep := range paths {
		if entries[i], err = p.nm.entryOf(DataNode(ep)); err != nil {
			return nil, err
		}
	}
	if cacheable {
		e.eps.Store(&epCache{st: p.st, gen: gen, entries: entries})
	}
	return entries, nil
}

func relationRefs(st *store.Store, relation string) ([]store.RefAt, error) {
	var out []store.RefAt
	for _, key := range st.Keys(relation) {
		rs, err := st.Refs(store.P(relation, key))
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}
