// Package core implements the paper's primary contribution (Herrmann,
// Dadam, Küspert, Roman, Schlageter: "A Lock Technique for Disjoint and
// Non-Disjoint Complex Objects", EDBT 1990):
//
//   - the general lock graph for complex objects with its three kinds of
//     lockable units — BLU, HoLU, HeLU (§4.2, Figure 4);
//   - object-specific lock graphs derived automatically from relation
//     schemas (§4.3, Figure 5);
//   - the unit analysis: outer and inner units, entry points, immediate
//     parents and superunits (§4.4.1, Figure 6);
//   - the lock protocol with rules 1–5 and the authorization-aware rule 4′,
//     including implicit upward and downward propagation (§4.4.2);
//   - the determination of "optimal" lock requests during query analysis by
//     anticipating lock escalations, stored in query-specific lock graphs
//     (§4.5, after HDKS89).
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
)

// LUKind classifies a lockable unit per the general lock graph (Figure 4).
type LUKind uint8

const (
	// BLU is a basic lockable unit: an atomic attribute value or a
	// reference to common data — the smallest lockable units.
	BLU LUKind = iota
	// HoLU is a homogeneous lockable unit: data of a single type, i.e. a
	// set or a list (including relations, which are sets of complex
	// objects).
	HoLU
	// HeLU is a heterogeneous lockable unit: data composed of different
	// types, i.e. a (complex) tuple. Database and segment nodes are HeLUs
	// (§4.2: "database can be regarded as a HeLU, segments as well").
	HeLU
)

// String returns the paper's abbreviation.
func (k LUKind) String() string {
	switch k {
	case BLU:
		return "BLU"
	case HoLU:
		return "HoLU"
	case HeLU:
		return "HeLU"
	}
	return fmt.Sprintf("LUKind(%d)", uint8(k))
}

// Level identifies where in the lock hierarchy a node lives.
type Level uint8

const (
	// LevelDatabase is the root of every lock hierarchy.
	LevelDatabase Level = iota
	// LevelSegment is a storage segment.
	LevelSegment
	// LevelRelation is a relation node.
	LevelRelation
	// LevelData is a node within a complex object (from the complex-object
	// root tuple downwards), addressed by a store.Path of length ≥ 2.
	LevelData
)

// Node addresses one lockable unit instance: the database, a segment, or a
// data path rooted at a relation.
type Node struct {
	Level   Level
	Segment string     // for LevelSegment
	Path    store.Path // for LevelRelation (len 1) and LevelData (len ≥ 2)
}

// DatabaseNode returns the database node.
func DatabaseNode() Node { return Node{Level: LevelDatabase} }

// SegmentNode returns the node of the named segment.
func SegmentNode(seg string) Node { return Node{Level: LevelSegment, Segment: seg} }

// DataNode returns the node addressed by a store path (relation node for a
// single-segment path).
func DataNode(p store.Path) Node {
	if len(p) == 1 {
		return Node{Level: LevelRelation, Path: p}
	}
	return Node{Level: LevelData, Path: p}
}

// Equal reports whether two nodes address the same lockable unit.
func (n Node) Equal(o Node) bool {
	return n.Level == o.Level && n.Segment == o.Segment && n.Path.Equal(o.Path)
}

// String renders the node for diagnostics.
func (n Node) String() string {
	switch n.Level {
	case LevelDatabase:
		return "<database>"
	case LevelSegment:
		return "segment " + n.Segment
	default:
		return n.Path.String()
	}
}

// Namer maps instance nodes to lock.Resource names. Resource names are the
// slash-joined immediate-parent chains — database/segment/relation/…path —
// so that a resource's prefixes are exactly its immediate parents: "outer
// and inner units as well as superunits have hierarchical structure"
// (§4.4.1).
type Namer struct {
	cat *schema.Catalog
	// coalesceBLUs implements the paper's footnote 3: atomic non-reference
	// attributes of one tuple level share a single BLU ("obj_id and
	// obj_name could form one BLU") instead of one BLU per attribute.
	coalesceBLUs bool

	// The name cache: every concrete data path named once keeps its computed
	// resource string, root-to-leaf ancestor resource chain, and schema
	// classification, so the naming hot path (protocol upward locking) does
	// no string building and no schema walk after the first visit. Safe
	// because relation schemas are add-only (a relation, once in the catalog,
	// is never removed or retyped), so a computed name can never go stale;
	// an unknown-relation error is NOT cached, since DDL may add the
	// relation later. Size is bounded by the number of distinct paths named
	// — the same scale as the lock table itself.
	//
	// dbRes and dbAnc are precomputed; segs caches segment resources; paths
	// is keyed by an fnv-1a hash of the path segments with per-bucket
	// collision lists, so a cache hit allocates nothing.
	nocache bool
	dbRes   lock.Resource
	dbAnc   []lock.Resource
	mu      sync.RWMutex
	segs    map[string]lock.Resource
	paths   map[uint64][]*nameEntry
}

// nameEntry is the cached naming of one concrete data path.
type nameEntry struct {
	path []string        // owned copy of the path segments (cache key)
	res  lock.Resource   // resource name (after BLU coalescing)
	anc  []lock.Resource // ancestor chain, root to leaf; shared, read-only
	info NodeInfo
	// infoErr is the (deterministic) classification error for paths whose
	// relation exists but whose shape is invalid; Classify returns it, and
	// Resource does too when coalescing needed the classification.
	infoErr error
	// eps caches the entry points below this node for downward
	// propagation (Protocol.entryPoints); nil until the first walk.
	eps atomic.Pointer[epCache]
}

// epCache is one entry-point walk's result, resolved to name entries and
// stamped with the store it walked and that store's reference generation
// read before the walk. It is immutable once published.
type epCache struct {
	st      *store.Store
	gen     uint64
	entries []*nameEntry
}

// NewNamer returns a Namer over the catalog. coalesceBLUs selects the
// footnote-3 BLU granularity (one BLU per tuple level) instead of one BLU
// per atomic attribute.
func NewNamer(cat *schema.Catalog, coalesceBLUs bool) *Namer {
	nm := &Namer{cat: cat, coalesceBLUs: coalesceBLUs}
	nm.dbRes = lock.Resource(cat.Database)
	nm.dbAnc = []lock.Resource{nm.dbRes}
	nm.segs = make(map[string]lock.Resource)
	nm.paths = make(map[uint64][]*nameEntry)
	return nm
}

// DisableCache turns the name cache off, and with it the protocol's
// entry-point cache: every Resource/Classify call recomputes from scratch
// and every S/X lock walks the store, as the pre-cache implementation did.
// It exists as the benchmark baseline (lockbench -bench hot) and must be
// called before the namer is shared between goroutines.
func (nm *Namer) DisableCache() { nm.nocache = true }

// pathHash is fnv-1a over the path's segments, with a separator byte so
// ["ab","c"] and ["a","bc"] hash apart.
func pathHash(p store.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, seg := range p {
		for i := 0; i < len(seg); i++ {
			h ^= uint64(seg[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

func segsEqual(a []string, b store.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryFor returns the cached naming of p, computing and inserting it on
// first use. Unknown-relation errors are returned without caching.
func (nm *Namer) entryFor(p store.Path) (*nameEntry, error) {
	h := pathHash(p)
	nm.mu.RLock()
	for _, e := range nm.paths[h] {
		if segsEqual(e.path, p) {
			nm.mu.RUnlock()
			return e, nil
		}
	}
	nm.mu.RUnlock()
	e, err := nm.buildEntry(p)
	if err != nil {
		return nil, err
	}
	nm.mu.Lock()
	for _, o := range nm.paths[h] {
		if segsEqual(o.path, p) {
			nm.mu.Unlock()
			return o, nil
		}
	}
	nm.paths[h] = append(nm.paths[h], e)
	nm.mu.Unlock()
	return e, nil
}

// buildEntry computes a nameEntry from the schema (the slow path, once per
// distinct path).
func (nm *Namer) buildEntry(p store.Path) (*nameEntry, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	rel := nm.cat.Relation(p.Relation())
	if rel == nil {
		return nil, fmt.Errorf("core: unknown relation %q", p.Relation())
	}
	e := &nameEntry{path: append([]string(nil), p...)}
	e.info, e.infoErr = nm.classifyUncached(p)
	db := nm.cat.Database
	named := p
	if nm.coalesceBLUs && len(p) >= 3 && e.infoErr == nil && e.info.Kind == BLU && !e.info.IsRef {
		named = p.Parent().Child(bluLabel)
	}
	if len(p) == 1 {
		e.res = lock.Resource(db + "/" + rel.Segment + "/" + rel.Name)
	} else {
		e.res = lock.Resource(db + "/" + rel.Segment + "/" + strings.Join([]string(named), "/"))
	}
	e.anc = make([]lock.Resource, 0, len(p)+1)
	e.anc = append(e.anc, nm.dbRes, nm.segRes(rel.Segment))
	pre := db + "/" + rel.Segment
	for i := 0; i < len(p)-1; i++ {
		pre = pre + "/" + p[i]
		e.anc = append(e.anc, lock.Resource(pre))
	}
	return e, nil
}

// segRes returns the (cached) resource name of a segment.
func (nm *Namer) segRes(seg string) lock.Resource {
	if nm.nocache {
		return lock.Resource(nm.cat.Database + "/" + seg)
	}
	nm.mu.RLock()
	r, ok := nm.segs[seg]
	nm.mu.RUnlock()
	if ok {
		return r
	}
	r = lock.Resource(nm.cat.Database + "/" + seg)
	nm.mu.Lock()
	nm.segs[seg] = r
	nm.mu.Unlock()
	return r
}

// entryOf resolves a relation- or data-level node to its naming: the cached
// entry, or, with the cache disabled, a fresh one built for this call by
// entryUncached. Database and segment nodes have no entry (nil).
func (nm *Namer) entryOf(n Node) (*nameEntry, error) {
	switch n.Level {
	case LevelDatabase, LevelSegment:
		return nil, nil
	}
	if nm.nocache {
		return nm.entryUncached(n)
	}
	return nm.entryFor(n.Path)
}

// entryUncached names n the way the pre-cache implementation did:
// resourceUncached, Ancestors mapped through Resource, and
// classifyUncached. It shares no code with buildEntry, so a DisableCache
// namer stays an independent reference for the cache.
func (nm *Namer) entryUncached(n Node) (*nameEntry, error) {
	if len(n.Path) == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	res, err := nm.resourceUncached(n)
	if err != nil {
		return nil, err
	}
	ancNodes, err := nm.Ancestors(n)
	if err != nil {
		return nil, err
	}
	anc := make([]lock.Resource, len(ancNodes))
	for i, a := range ancNodes {
		if anc[i], err = nm.Resource(a); err != nil {
			return nil, err
		}
	}
	e := &nameEntry{path: n.Path, res: res, anc: anc}
	e.info, e.infoErr = nm.classifyUncached(n.Path)
	return e, nil
}

// chain returns the resource name of n together with its ancestor resources
// in root-to-leaf order — the protocol's per-lock naming, served from the
// cache with zero allocations after the first visit. The returned slice is
// shared and must not be modified.
func (nm *Namer) chain(n Node) (lock.Resource, []lock.Resource, error) {
	e, err := nm.entryOf(n)
	if err != nil {
		return "", nil, err
	}
	return nm.chainOf(n, e)
}

// chainOf is chain for a node already resolved by entryOf.
func (nm *Namer) chainOf(n Node, e *nameEntry) (lock.Resource, []lock.Resource, error) {
	switch n.Level {
	case LevelDatabase:
		return nm.dbRes, nil, nil
	case LevelSegment:
		return nm.segRes(n.Segment), nm.dbAnc, nil
	}
	if nm.coalesceBLUs && len(n.Path) >= 3 && e.infoErr != nil {
		return "", nil, e.infoErr
	}
	return e.res, e.anc, nil
}

// Catalog returns the catalog the namer was built over.
func (nm *Namer) Catalog() *schema.Catalog { return nm.cat }

// blulabel is the synthetic path segment naming a coalesced per-level BLU.
const bluLabel = "#attrs"

// Resource returns the lock resource name for a node. Data-path names are
// served from the name cache (zero allocations after a path's first visit).
func (nm *Namer) Resource(n Node) (lock.Resource, error) {
	switch n.Level {
	case LevelDatabase:
		return nm.dbRes, nil
	case LevelSegment:
		return nm.segRes(n.Segment), nil
	}
	if nm.nocache {
		return nm.resourceUncached(n)
	}
	e, err := nm.entryFor(n.Path)
	if err != nil {
		return "", err
	}
	if nm.coalesceBLUs && len(n.Path) >= 3 && e.infoErr != nil {
		// Coalescing needed the classification (pre-cache behavior: the
		// Classify error surfaced through Resource).
		return "", e.infoErr
	}
	return e.res, nil
}

// resourceUncached is the pre-cache naming (DisableCache mode).
func (nm *Namer) resourceUncached(n Node) (lock.Resource, error) {
	db := nm.cat.Database
	rel := nm.cat.Relation(n.Path.Relation())
	if rel == nil {
		return "", fmt.Errorf("core: unknown relation %q", n.Path.Relation())
	}
	if n.Level == LevelRelation || len(n.Path) == 1 {
		return lock.Resource(db + "/" + rel.Segment + "/" + rel.Name), nil
	}
	p := n.Path
	if nm.coalesceBLUs && len(p) >= 3 {
		// If the path addresses an atomic non-ref attribute of a tuple,
		// substitute the shared per-level BLU segment.
		info, err := nm.Classify(p)
		if err != nil {
			return "", err
		}
		if info.Kind == BLU && !info.IsRef {
			p = p.Parent().Child(bluLabel)
		}
	}
	return lock.Resource(db + "/" + rel.Segment + "/" + strings.Join([]string(p), "/")), nil
}

// MustResource is Resource for known-valid nodes (panics otherwise); used in
// tests and figure printers.
func (nm *Namer) MustResource(n Node) lock.Resource {
	r, err := nm.Resource(n)
	if err != nil {
		panic(err)
	}
	return r
}

// Ancestors returns the chain of immediate parents of a node from the
// database node down to (excluding) the node itself, in root-to-leaf order —
// the order rule 5 prescribes for requesting locks.
//
// Crucially, for a complex-object root of a referenced relation (an entry
// point), the chain is relation → segment → database: the referencing BLU is
// NOT an immediate parent (it is connected by a dashed line, §4.4.1). This
// is exactly the "implicit upward propagation" path of rules 1–4.
func (nm *Namer) Ancestors(n Node) ([]Node, error) {
	switch n.Level {
	case LevelDatabase:
		return nil, nil
	case LevelSegment:
		return []Node{DatabaseNode()}, nil
	}
	rel := nm.cat.Relation(n.Path.Relation())
	if rel == nil {
		return nil, fmt.Errorf("core: unknown relation %q", n.Path.Relation())
	}
	out := []Node{DatabaseNode(), SegmentNode(rel.Segment)}
	for i := 1; i < len(n.Path); i++ {
		out = append(out, DataNode(n.Path[:i].Clone()))
	}
	return out, nil
}

// NodeInfo describes the lockable unit a data path addresses.
type NodeInfo struct {
	Kind LUKind
	// Type is the schema type of the addressed value (nil for coalesced
	// positions that do not correspond to a schema node).
	Type *schema.Type
	// IsRef reports whether the node is a reference BLU.
	IsRef bool
	// RefTarget is the referenced relation for reference BLUs.
	RefTarget string
}

// Classify determines the lockable-unit kind of a data path by walking the
// relation's schema: relations and collections are HoLUs, tuples are HeLUs,
// atomic attributes and references are BLUs (§4.3 derivation rules). The
// walk is memoized per path in the name cache (classification errors for a
// known relation are deterministic — relation types are immutable once in
// the catalog — so they are memoized too).
func (nm *Namer) Classify(p store.Path) (NodeInfo, error) {
	if nm.nocache {
		return nm.classifyUncached(p)
	}
	if len(p) == 0 {
		return NodeInfo{}, fmt.Errorf("core: empty path")
	}
	e, err := nm.entryFor(p)
	if err != nil {
		return NodeInfo{}, err
	}
	if e.infoErr != nil {
		return NodeInfo{}, e.infoErr
	}
	return e.info, nil
}

// classifyUncached is the memo-free schema walk backing Classify.
func (nm *Namer) classifyUncached(p store.Path) (NodeInfo, error) {
	if len(p) == 0 {
		return NodeInfo{}, fmt.Errorf("core: empty path")
	}
	rel := nm.cat.Relation(p.Relation())
	if rel == nil {
		return NodeInfo{}, fmt.Errorf("core: unknown relation %q", p.Relation())
	}
	if len(p) == 1 {
		// The relation: a set of complex objects — a HoLU.
		return NodeInfo{Kind: HoLU, Type: nil}, nil
	}
	// p[1] is a complex-object key; the object is the relation's tuple type.
	t := rel.Type
	for i := 2; i < len(p); i++ {
		seg := p[i]
		switch t.Kind {
		case schema.KindTuple:
			ft := t.Field(seg)
			if ft == nil {
				return NodeInfo{}, fmt.Errorf("core: path %q: no field %q", p, seg)
			}
			t = ft
		case schema.KindSet, schema.KindList:
			// seg is an element ID; the type descends to the element type.
			t = t.Elem
		default:
			return NodeInfo{}, fmt.Errorf("core: path %q: cannot descend into %v at %q", p, t.Kind, seg)
		}
	}
	return classifyType(t), nil
}

func classifyType(t *schema.Type) NodeInfo {
	switch t.Kind {
	case schema.KindSet, schema.KindList:
		return NodeInfo{Kind: HoLU, Type: t}
	case schema.KindTuple:
		return NodeInfo{Kind: HeLU, Type: t}
	case schema.KindRef:
		return NodeInfo{Kind: BLU, Type: t, IsRef: true, RefTarget: t.Target}
	default:
		return NodeInfo{Kind: BLU, Type: t}
	}
}
