package core

import (
	"fmt"
	"strings"

	"colock/internal/lock"
	"colock/internal/schema"
)

// Determination of "optimal" lock requests (§4.5, following HDKS89). During
// query analysis — before any data is touched — the planner chooses the lock
// granule and mode that maximize expected throughput: granules "must be
// neither too coarse (data would be blocked unnecessarily) nor too small
// (high overhead would result)". The chosen requests are stored in a
// query-specific lock graph; query execution then requests locks straight
// from the plan.
//
// The key mechanism is the anticipation of lock escalations: if the
// estimated number of fine locks exceeds a budget, or the estimated fraction
// of a collection touched exceeds a threshold, the plan requests the coarser
// granule up front instead of escalating (expensively, deadlock-prone) at
// run time.

// AccessKind distinguishes read from update access.
type AccessKind uint8

const (
	// AccessRead corresponds to FOR READ: S locks.
	AccessRead AccessKind = iota
	// AccessUpdate corresponds to FOR UPDATE: X locks.
	AccessUpdate
)

// String returns "read" or "update".
func (a AccessKind) String() string {
	if a == AccessUpdate {
		return "update"
	}
	return "read"
}

// Mode returns the lock mode of the access kind.
func (a AccessKind) Mode() lock.Mode {
	if a == AccessUpdate {
		return lock.X
	}
	return lock.S
}

// Hop is one navigation step of a query from a tuple into one of its
// collection-valued attributes, selecting either one element (Bound, via a
// key-equality predicate) or a subset of elements (Selectivity, 1.0 for a
// full scan).
type Hop struct {
	// Attrs is the attribute chain from the current tuple to the
	// collection, e.g. ["robots"]; nested tuple attributes yield longer
	// chains.
	Attrs []string
	// Bound reports whether the element is identified by an equality
	// predicate on its key-like attribute.
	Bound bool
	// Selectivity estimates the fraction of elements matched when not
	// bound (1.0 = full scan).
	Selectivity float64
}

// QuerySpec is the planner's neutral description of a query: the root
// relation, whether the complex object is identified by a key predicate, the
// navigation hops, and the access kind.
type QuerySpec struct {
	Relation string
	// ObjectBound reports whether the complex object is identified by an
	// equality predicate on the relation key.
	ObjectBound bool
	// ObjectSelectivity estimates the fraction of the relation's objects
	// matched when not bound (1.0 = full scan).
	ObjectSelectivity float64
	// Hops are the collection navigations below the object.
	Hops   []Hop
	Access AccessKind
	// NoFollowRefs marks queries whose semantics do not access referenced
	// common data (§4.5 end, e.g. deleting a robot without the right to
	// delete effectors): downward propagation may be skipped by the
	// executor.
	NoFollowRefs bool
}

// PlannerOptions tune the escalation anticipation.
type PlannerOptions struct {
	// Theta is the touched-fraction threshold above which the plan
	// escalates from per-element locks to one collection lock. Default 0.4.
	Theta float64
	// MaxLocks is the absolute budget of instance locks per level above
	// which the plan escalates. Default 64.
	MaxLocks float64
}

func (o PlannerOptions) withDefaults() PlannerOptions {
	if o.Theta <= 0 {
		o.Theta = 0.4
	}
	if o.MaxLocks <= 0 {
		o.MaxLocks = 64
	}
	return o
}

// GranuleLevel identifies the depth at which instance locks are taken.
// Level 0 is the relation, level 1 the complex object, level 2i+2 the
// collection of hop i, level 2i+3 its elements.
type GranuleLevel int

// LevelName renders a granule level for a spec ("relation", "object",
// "collection robots", "element robots").
func (s QuerySpec) LevelName(l GranuleLevel) string {
	switch {
	case l <= 0:
		return "relation " + s.Relation
	case l == 1:
		return "object"
	default:
		hop := (int(l) - 2) / 2
		attr := strings.Join(s.Hops[hop].Attrs, ".")
		if int(l)%2 == 0 {
			return "collection " + attr
		}
		return "element " + attr
	}
}

// Plan is a query-specific lock graph: the granule level and mode to request
// during execution, with the planner's estimates recorded for inspection.
type Plan struct {
	Spec QuerySpec
	// Level is the chosen instance-lock level.
	Level GranuleLevel
	// Mode is the mode requested at that level (S or X); ancestors receive
	// intention locks through the protocol automatically.
	Mode lock.Mode
	// TargetLevel is the finest level the query addresses.
	TargetLevel GranuleLevel
	// EstimatedLocks is the expected number of instance locks at Level.
	EstimatedLocks float64
	// EstimatedAtTarget is the expected number at TargetLevel (what a
	// no-escalation plan would request).
	EstimatedAtTarget float64
	// EscalatedLevels counts how many levels the plan moved up.
	EscalatedLevels int
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("plan{%s %s at %s, ~%.1f locks (target %s ~%.1f), escalated %d}",
		p.Spec.Access, p.Mode, p.Spec.LevelName(p.Level), p.EstimatedLocks,
		p.Spec.LevelName(p.TargetLevel), p.EstimatedAtTarget, p.EscalatedLevels)
}

// PlanQuery chooses the "optimal" lock requests for a query spec using
// catalog statistics. It returns an error for specs that do not match the
// schema.
func PlanQuery(cat *schema.Catalog, spec QuerySpec, opts PlannerOptions) (Plan, error) {
	opts = opts.withDefaults()
	rel := cat.Relation(spec.Relation)
	if rel == nil {
		return Plan{}, fmt.Errorf("core: unknown relation %q", spec.Relation)
	}
	stats := cat.Stats()

	// fanouts[i] is hop i's average fan-out; counts[l] the expected number
	// of instance locks if locking at level l; fractions[l] the touched
	// fraction at element-ish levels. All three share one buffer, on the
	// stack for plans of up to four hops.
	nLevels := 2 + 2*len(spec.Hops)
	var stack [4 + 2*(2+2*4)]float64
	buf := stack[:]
	if n := len(spec.Hops) + 2*nLevels; n > len(buf) {
		buf = make([]float64, n)
	}
	h := len(spec.Hops)
	fanouts, counts, fractions := buf[:h], buf[h:h+nLevels], buf[h+nLevels:h+2*nLevels]

	// Validate hops against the schema and gather fan-outs.
	t := rel.Type
	var pathBuf [64]byte
	statPath := append(pathBuf[:0], spec.Relation...)
	for i, h := range spec.Hops {
		for _, a := range h.Attrs {
			if t.Kind != schema.KindTuple {
				return Plan{}, fmt.Errorf("core: hop %d: %q is not a tuple attribute chain", i, strings.Join(h.Attrs, "."))
			}
			ft := t.Field(a)
			if ft == nil {
				return Plan{}, fmt.Errorf("core: hop %d: no attribute %q", i, a)
			}
			t = ft
			statPath = append(append(statPath, '.'), a...)
		}
		if t.Kind != schema.KindSet && t.Kind != schema.KindList {
			return Plan{}, fmt.Errorf("core: hop %d: %q is not a collection", i, strings.Join(h.Attrs, "."))
		}
		fanouts[i] = stats.CardOr(string(statPath), 8)
		// Descend into the element type for the next hop.
		t = t.Elem
	}
	relCard := stats.CardOr(spec.Relation, 100)

	counts[0] = 1
	fractions[0] = 1
	objSel := spec.ObjectSelectivity
	if spec.ObjectBound {
		// A key-bound access names exactly one object: the fraction rule is
		// for scans, so it never triggers here (only the count rule can).
		counts[1] = 1
		fractions[1] = 0
	} else {
		if objSel <= 0 || objSel > 1 {
			objSel = 1
		}
		counts[1] = relCard * objSel
		fractions[1] = objSel
	}
	for i, h := range spec.Hops {
		coll := 2 + 2*i
		elem := coll + 1
		counts[coll] = counts[coll-1] // one collection per parent element
		fractions[coll] = 1
		sel := h.Selectivity
		if h.Bound {
			counts[elem] = counts[coll]
			fractions[elem] = 0 // bound: exactly one element, never θ-escalate
		} else {
			if sel <= 0 || sel > 1 {
				sel = 1
			}
			counts[elem] = counts[coll] * fanouts[i] * sel
			fractions[elem] = sel
		}
	}

	target := GranuleLevel(nLevels - 1)
	if len(spec.Hops) == 0 {
		target = 1
	}
	level := target
	escalated := 0
	for level > 0 {
		escalate := false
		if fractions[level] >= opts.Theta && int(level)%2 == 1 {
			// Touching most elements of the enclosing granule: one coarse
			// lock beats many fine ones (element levels are odd).
			escalate = true
		}
		if counts[level] > opts.MaxLocks {
			escalate = true
		}
		if !escalate {
			break
		}
		level--
		escalated++
	}
	return Plan{
		Spec:              spec,
		Level:             level,
		Mode:              spec.Access.Mode(),
		TargetLevel:       target,
		EstimatedLocks:    counts[level],
		EstimatedAtTarget: counts[target],
		EscalatedLevels:   escalated,
	}, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
