package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Data snapshots: a deep, self-contained serialization of every complex
// object in the store, used for backup and media recovery in the
// workstation–server simulation (the lock manager has its own snapshot for
// durable locks; this one covers the data).

// wireValue is the gob-friendly shape of a Value tree.
type wireValue struct {
	Kind   uint8 // 0 str, 1 int, 2 real, 3 bool, 4 ref, 5 tuple, 6 set, 7 list
	Str    string
	Int    int64
	Real   float64
	Bool   bool
	RefRel string
	RefKey string
	// Names and Children encode tuple fields (sorted by name), set elements
	// (sorted by ID) or list elements (list order).
	Names    []string
	Children []wireValue
}

const (
	wireStr = iota
	wireInt
	wireReal
	wireBool
	wireRef
	wireTuple
	wireSet
	wireList
)

func toWire(v Value) wireValue {
	switch x := v.(type) {
	case Str:
		return wireValue{Kind: wireStr, Str: string(x)}
	case Int:
		return wireValue{Kind: wireInt, Int: int64(x)}
	case Real:
		return wireValue{Kind: wireReal, Real: float64(x)}
	case Bool:
		return wireValue{Kind: wireBool, Bool: bool(x)}
	case Ref:
		return wireValue{Kind: wireRef, RefRel: x.Relation, RefKey: x.Key}
	case *Tuple:
		w := wireValue{Kind: wireTuple}
		for _, n := range x.FieldNames() {
			w.Names = append(w.Names, n)
			w.Children = append(w.Children, toWire(x.Get(n)))
		}
		return w
	case *Set:
		w := wireValue{Kind: wireSet}
		for _, id := range x.IDs() {
			w.Names = append(w.Names, id)
			w.Children = append(w.Children, toWire(x.Get(id)))
		}
		return w
	case *List:
		w := wireValue{Kind: wireList}
		for _, id := range x.IDs() {
			w.Names = append(w.Names, id)
			w.Children = append(w.Children, toWire(x.Get(id)))
		}
		return w
	}
	panic(fmt.Sprintf("store: cannot serialize %T", v))
}

func fromWire(w wireValue) (Value, error) {
	switch w.Kind {
	case wireStr:
		return Str(w.Str), nil
	case wireInt:
		return Int(w.Int), nil
	case wireReal:
		return Real(w.Real), nil
	case wireBool:
		return Bool(w.Bool), nil
	case wireRef:
		return Ref{Relation: w.RefRel, Key: w.RefKey}, nil
	case wireTuple:
		t := NewTuple()
		for i, n := range w.Names {
			c, err := fromWire(w.Children[i])
			if err != nil {
				return nil, err
			}
			t.Set(n, c)
		}
		return t, nil
	case wireSet:
		s := NewSet()
		for i, id := range w.Names {
			c, err := fromWire(w.Children[i])
			if err != nil {
				return nil, err
			}
			s.Add(id, c)
		}
		return s, nil
	case wireList:
		l := NewList()
		for i, id := range w.Names {
			c, err := fromWire(w.Children[i])
			if err != nil {
				return nil, err
			}
			l.Append(id, c)
		}
		return l, nil
	}
	return nil, fmt.Errorf("store: unknown wire kind %d", w.Kind)
}

// objectRecord is one serialized complex object.
type objectRecord struct {
	Relation string
	Key      string
	Value    wireValue
}

// EncodeData serializes every complex object of the store (deterministic
// order) for backup.
func (s *Store) EncodeData() ([]byte, error) {
	s.mu.RLock()
	var records []objectRecord
	for _, rel := range s.cat.Relations() {
		keys := make([]string, 0, len(s.rels[rel.Name]))
		for k := range s.rels[rel.Name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			records = append(records, objectRecord{
				Relation: rel.Name, Key: k, Value: toWire(s.rels[rel.Name][k]),
			})
		}
	}
	s.mu.RUnlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(records); err != nil {
		return nil, fmt.Errorf("store: encode data: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreData replaces the store's entire contents with a backup taken by
// EncodeData. Every restored object is type-checked against the catalog and
// the result is integrity-checked; on any error the store is left unchanged.
func (s *Store) RestoreData(data []byte) error {
	var records []objectRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&records); err != nil {
		return fmt.Errorf("store: decode data: %w", err)
	}
	// Build the new contents aside first.
	fresh := make(map[string]map[string]*Tuple, len(s.rels))
	for _, rel := range s.cat.Relations() {
		fresh[rel.Name] = make(map[string]*Tuple)
	}
	for _, rec := range records {
		rel := s.cat.Relation(rec.Relation)
		if rel == nil {
			return fmt.Errorf("store: restore: unknown relation %q", rec.Relation)
		}
		v, err := fromWire(rec.Value)
		if err != nil {
			return fmt.Errorf("store: restore %s/%s: %w", rec.Relation, rec.Key, err)
		}
		obj, ok := v.(*Tuple)
		if !ok {
			return fmt.Errorf("store: restore %s/%s: not a tuple", rec.Relation, rec.Key)
		}
		if err := Check(obj, rel.Type); err != nil {
			return fmt.Errorf("store: restore %s/%s: %w", rec.Relation, rec.Key, err)
		}
		if _, dup := fresh[rec.Relation][rec.Key]; dup {
			return fmt.Errorf("store: restore: duplicate %s/%s", rec.Relation, rec.Key)
		}
		fresh[rec.Relation][rec.Key] = obj
	}
	s.mu.Lock()
	old := s.rels
	s.rels = fresh
	s.refGen.Add(1)
	s.mu.Unlock()
	if err := s.CheckIntegrity(); err != nil {
		s.mu.Lock()
		s.rels = old
		s.refGen.Add(1)
		s.mu.Unlock()
		return fmt.Errorf("store: restore: %w", err)
	}
	return nil
}
