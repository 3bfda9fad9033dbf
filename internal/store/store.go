package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"colock/internal/schema"
)

// Store is an in-memory database of complex objects, organized as
// database → segments → relations → complex objects, mirroring the System R
// lock hierarchy the paper extends. It is safe for concurrent use; isolation
// between transactions is the job of the lock protocol layered on top, not
// of the store.
type Store struct {
	cat *schema.Catalog

	mu   sync.RWMutex
	rels map[string]map[string]*Tuple // relation → key → root tuple

	// scans counts nodes visited by reverse-reference scans (BackRefs).
	// The traditional DAG protocol must pay this cost to X-lock shared
	// data (§3.2.2); the counter makes the cost measurable in E3.
	scans atomic.Uint64

	// refGen is the reference generation (see RefGen), bumped while mu is
	// held for writing.
	refGen atomic.Uint64
}

// New returns an empty store over the given (validated) catalog.
func New(cat *schema.Catalog) *Store {
	s := &Store{cat: cat, rels: make(map[string]map[string]*Tuple)}
	for _, r := range cat.Relations() {
		s.rels[r.Name] = make(map[string]*Tuple)
	}
	return s
}

// Catalog returns the schema catalog the store was built over.
func (s *Store) Catalog() *schema.Catalog { return s.cat }

// Insert adds a complex object to a relation. The object is type-checked
// and its key attribute must match the given key.
func (s *Store) Insert(relation, key string, obj *Tuple) error {
	rel := s.cat.Relation(relation)
	if rel == nil {
		return fmt.Errorf("store: unknown relation %q", relation)
	}
	if err := Check(obj, rel.Type); err != nil {
		return fmt.Errorf("store: insert into %q: %w", relation, err)
	}
	kv := obj.Get(rel.Key)
	if got := atomicString(kv); got != key {
		return fmt.Errorf("store: insert into %q: key attribute %q = %v, want %q", relation, rel.Key, kv, key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rels[relation] == nil {
		// The relation was added to the catalog after the store was built
		// (DDL): create its object map lazily.
		s.rels[relation] = make(map[string]*Tuple)
	}
	if _, dup := s.rels[relation][key]; dup {
		return fmt.Errorf("store: duplicate object %q/%q", relation, key)
	}
	s.rels[relation][key] = obj
	s.refGen.Add(1)
	return nil
}

// atomicString renders an atomic value as a plain key string.
func atomicString(v Value) string {
	switch x := v.(type) {
	case Str:
		return string(x)
	case Int:
		return Int(x).String()
	case Real:
		return Real(x).String()
	case Bool:
		return Bool(x).String()
	}
	return ""
}

// Delete removes a complex object and returns it (nil if absent).
func (s *Store) Delete(relation, key string) *Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.rels[relation][key]
	if obj != nil {
		delete(s.rels[relation], key)
		s.refGen.Add(1)
	}
	return obj
}

// Get returns the root tuple of a complex object, or nil.
func (s *Store) Get(relation, key string) *Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels[relation][key]
}

// Keys returns the sorted keys of a relation.
func (s *Store) Keys(relation string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rels[relation]))
	for k := range s.rels[relation] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of complex objects in a relation.
func (s *Store) Count(relation string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rels[relation])
}

// Resolve follows a reference to its target root tuple, or nil.
func (s *Store) Resolve(r Ref) *Tuple { return s.Get(r.Relation, r.Key) }

// Lookup navigates a path and returns the value it addresses. Paths of
// length 1 address a relation and return nil (relations are not Values);
// use Keys for them.
func (s *Store) Lookup(p Path) (Value, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(p)
}

func (s *Store) lookupLocked(p Path) (Value, error) {
	rel, ok := s.rels[p.Relation()]
	if !ok {
		return nil, fmt.Errorf("store: unknown relation %q", p.Relation())
	}
	obj, ok := rel[p.Key()]
	if !ok {
		return nil, fmt.Errorf("store: no object %q/%q", p.Relation(), p.Key())
	}
	var cur Value = obj
	for i := 2; i < len(p); i++ {
		seg := p[i]
		switch x := cur.(type) {
		case *Tuple:
			cur = x.Get(seg)
			if cur == nil {
				return nil, fmt.Errorf("store: path %q: no field %q", p, seg)
			}
		case *Set:
			cur = x.Get(seg)
			if cur == nil {
				return nil, fmt.Errorf("store: path %q: no element %q", p, seg)
			}
		case *List:
			cur = x.Get(seg)
			if cur == nil {
				return nil, fmt.Errorf("store: path %q: no element %q", p, seg)
			}
		default:
			return nil, fmt.Errorf("store: path %q: cannot descend into %v at %q", p, cur.Kind(), seg)
		}
	}
	return cur, nil
}

// SetAtomic replaces the atomic (or reference) value a path addresses and
// returns the previous value, for undo logging.
func (s *Store) SetAtomic(p Path, v Value) (Value, error) {
	if len(p) < 3 {
		return nil, fmt.Errorf("store: path %q too short for attribute update", p)
	}
	if !v.Kind().Atomic() {
		return nil, fmt.Errorf("store: SetAtomic with non-atomic %v", v.Kind())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, err := s.setAtomicLocked(p, v)
	if err == nil && (old.Kind() == schema.KindRef || v.Kind() == schema.KindRef) {
		s.refGen.Add(1)
	}
	return old, err
}

func (s *Store) setAtomicLocked(p Path, v Value) (Value, error) {
	parent, err := s.lookupLocked(p.Parent())
	if err != nil {
		return nil, err
	}
	last := p[len(p)-1]
	switch x := parent.(type) {
	case *Tuple:
		old := x.Get(last)
		if old == nil {
			return nil, fmt.Errorf("store: path %q: no field %q", p, last)
		}
		if old.Kind() != v.Kind() {
			return nil, fmt.Errorf("store: path %q: kind %v, want %v", p, v.Kind(), old.Kind())
		}
		x.Set(last, v)
		return old, nil
	case *Set:
		old := x.Get(last)
		if old == nil {
			return nil, fmt.Errorf("store: path %q: no element %q", p, last)
		}
		x.Add(last, v)
		return old, nil
	case *List:
		old := x.Get(last)
		if old == nil {
			return nil, fmt.Errorf("store: path %q: no element %q", p, last)
		}
		x.Append(last, v)
		return old, nil
	}
	return nil, fmt.Errorf("store: path %q: parent is %v", p, parent.Kind())
}

// AddElem inserts an element into the collection a path addresses; it fails
// if the ID already exists.
func (s *Store) AddElem(collection Path, id string, v Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cv, err := s.lookupLocked(collection)
	if err != nil {
		return err
	}
	switch x := cv.(type) {
	case *Set:
		if x.Get(id) != nil {
			return fmt.Errorf("store: %q: duplicate element %q", collection, id)
		}
		x.Add(id, v)
	case *List:
		if x.Get(id) != nil {
			return fmt.Errorf("store: %q: duplicate element %q", collection, id)
		}
		x.Append(id, v)
	default:
		return fmt.Errorf("store: %q is not a collection", collection)
	}
	s.refGen.Add(1)
	return nil
}

// RemoveElem removes an element from the collection a path addresses and
// returns the removed value (nil if absent).
func (s *Store) RemoveElem(collection Path, id string) (Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cv, err := s.lookupLocked(collection)
	if err != nil {
		return nil, err
	}
	var old Value
	switch x := cv.(type) {
	case *Set:
		old = x.Remove(id)
	case *List:
		old = x.Remove(id)
	default:
		return nil, fmt.Errorf("store: %q is not a collection", collection)
	}
	if old != nil {
		s.refGen.Add(1)
	}
	return old, nil
}

// BackRef describes one reference found by a reverse scan: the path of the
// Ref leaf that points at the target.
type BackRef struct {
	// RefPath addresses the reference element/attribute itself.
	RefPath Path
}

// BackRefs scans the whole database for references to relation/key and
// returns the paths of all referencing leaves. This is the expensive
// "find all parents" operation the traditional DAG protocol needs before it
// may X-lock shared data (§3.2.2: "It is a very time-consuming task to find
// out which robots are affected"); every node visited increments the scan
// counter.
func (s *Store) BackRefs(relation, key string) []BackRef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []BackRef
	for _, rel := range s.cat.Relations() {
		objs := s.rels[rel.Name]
		keys := make([]string, 0, len(objs))
		for k := range objs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := P(rel.Name, k)
			s.scanValue(objs[k], p, relation, key, &out)
		}
	}
	return out
}

func (s *Store) scanValue(v Value, at Path, relation, key string, out *[]BackRef) {
	s.scans.Add(1)
	switch x := v.(type) {
	case Ref:
		if x.Relation == relation && x.Key == key {
			*out = append(*out, BackRef{RefPath: at})
		}
	case *Tuple:
		for _, n := range x.FieldNames() {
			s.scanValue(x.Get(n), at.Child(n), relation, key, out)
		}
	case *Set:
		for _, id := range x.IDs() {
			s.scanValue(x.Get(id), at.Child(id), relation, key, out)
		}
	case *List:
		for _, id := range x.IDs() {
			s.scanValue(x.Get(id), at.Child(id), relation, key, out)
		}
	}
}

// RefGen returns the reference generation. It changes whenever a
// mutation may have added or removed a reference: Insert, Delete, AddElem,
// RemoveElem, SetAtomic of a reference, and RestoreData. Read it before a
// Refs walk; if it is unchanged afterwards, the walk's result is current.
func (s *Store) RefGen() uint64 { return s.refGen.Load() }

// ScanCount returns the cumulative number of nodes visited by BackRefs.
func (s *Store) ScanCount() uint64 { return s.scans.Load() }

// ResetScanCount zeroes the reverse-scan counter.
func (s *Store) ResetScanCount() { s.scans.Store(0) }

// Refs returns the paths of all reference leaves inside the subtree rooted
// at p, together with their targets. The lock protocol uses this during
// implicit downward propagation: "this is done by a scan over all the
// existing references … the affected inner units have to be accessed anyway
// to read the data during query execution" (§4.4.2.1). The whole traversal
// runs under the store's read lock so it is safe against concurrent
// mutation of unrelated data.
func (s *Store) Refs(p Path) ([]RefAt, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	var out []RefAt
	collectRefs(v, p, &out)
	return out, nil
}

// LookupClone navigates a path and returns a deep copy of the addressed
// value, taken under the store's read lock. Use it whenever the result is
// inspected outside the store (Lookup returns live structures).
func (s *Store) LookupClone(p Path) (Value, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	return v.Clone(), nil
}

// CollectionIDs returns the element IDs of the collection a path addresses
// (sorted for sets, list order for lists), copied under the read lock.
func (s *Store) CollectionIDs(p Path) ([]string, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	switch c := v.(type) {
	case *Set:
		return c.IDs(), nil
	case *List:
		return c.IDs(), nil
	}
	return nil, fmt.Errorf("store: %q is not a collection", p)
}

// RefAt is a reference leaf located at a path.
type RefAt struct {
	Path   Path
	Target Ref
}

func collectRefs(v Value, at Path, out *[]RefAt) {
	switch x := v.(type) {
	case Ref:
		*out = append(*out, RefAt{Path: at, Target: x})
	case *Tuple:
		for _, n := range x.FieldNames() {
			collectRefs(x.Get(n), at.Child(n), out)
		}
	case *Set:
		for _, id := range x.IDs() {
			collectRefs(x.Get(id), at.Child(id), out)
		}
	case *List:
		for _, id := range x.IDs() {
			collectRefs(x.Get(id), at.Child(id), out)
		}
	}
}

// CheckIntegrity verifies that every reference in the database resolves to
// an existing complex object.
func (s *Store) CheckIntegrity() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rel := range s.cat.Relations() {
		for k, obj := range s.rels[rel.Name] {
			var refs []RefAt
			collectRefs(obj, P(rel.Name, k), &refs)
			for _, r := range refs {
				if tgt, ok := s.rels[r.Target.Relation]; !ok || tgt[r.Target.Key] == nil {
					return fmt.Errorf("store: dangling reference at %q to %s/%s", r.Path, r.Target.Relation, r.Target.Key)
				}
			}
		}
	}
	return nil
}
