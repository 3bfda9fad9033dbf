package query

import (
	"testing"
	"time"

	"colock/internal/authz"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
)

type fixture struct {
	st   *store.Store
	mgr  *txn.Manager
	exec *Executor
}

func newFixture(t *testing.T, opts core.Options) *fixture {
	t.Helper()
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	nm := core.NewNamer(st.Catalog(), false)
	proto := core.NewProtocol(lock.NewManager(lock.Options{}), st, nm, opts)
	mgr := txn.NewManager(proto, st)
	return &fixture{st: st, mgr: mgr, exec: NewExecutor(mgr, core.PlannerOptions{})}
}

func heldOf(f *fixture, id lock.TxnID) map[string]lock.Mode {
	out := make(map[string]lock.Mode)
	for _, h := range f.mgr.Protocol().Manager().HeldLocks(id) {
		out[string(h.Resource)] = h.Mode
	}
	return out
}

// TestExecQ1: all c_objects of cell c1 for read — one S lock on the
// c_objects collection, results contain o1.
func TestExecQ1(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, plan, err := f.exec.Run(tx, q1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Path.String() != "cells/c1/c_objects/o1" {
		t.Fatalf("results = %v", res)
	}
	obj := res[0].Value.(*store.Tuple)
	if obj.Get("obj_name") != store.Str("on1") {
		t.Errorf("value = %v", res[0].Value)
	}
	if got := plan.Spec.LevelName(plan.Level); got != "collection c_objects" {
		t.Errorf("plan level = %s", got)
	}
	held := heldOf(f, tx.ID())
	if held["db1/seg1/cells/c1/c_objects"] != lock.S {
		t.Errorf("collection not S-locked: %v", held)
	}
	if _, ok := held["db1/seg1/cells/c1/c_objects/o1"]; ok {
		t.Error("element locked despite collection-level plan")
	}
}

// TestExecQ2MatchesFigure7: executing the paper's Q2 through the full stack
// (parser → analyzer → planner → executor → protocol) produces exactly the
// Figure 7 lock set.
func TestExecQ2MatchesFigure7(t *testing.T) {
	auth := authz.NewTable(false)
	f := newFixture(t, core.Options{Rule4Prime: true, Authorizer: auth})
	tx := f.mgr.Begin()
	defer tx.Abort()
	auth.Grant(tx.ID(), "cells")

	res, plan, err := f.exec.Run(tx, q2Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Path.String() != "cells/c1/robots/r1" {
		t.Fatalf("results = %v", res)
	}
	if got := plan.Spec.LevelName(plan.Level); got != "element robots" {
		t.Errorf("plan level = %s", got)
	}
	want := map[string]lock.Mode{
		"db1":                         lock.IX,
		"db1/seg1":                    lock.IX,
		"db1/seg1/cells":              lock.IX,
		"db1/seg1/cells/c1":           lock.IX,
		"db1/seg1/cells/c1/robots":    lock.IX,
		"db1/seg1/cells/c1/robots/r1": lock.X,
		"db1/seg2":                    lock.IS,
		"db1/seg2/effectors":          lock.IS,
		"db1/seg2/effectors/e1":       lock.S,
		"db1/seg2/effectors/e2":       lock.S,
	}
	got := heldOf(f, tx.ID())
	if len(got) != len(want) {
		t.Fatalf("lock set:\n got %v\nwant %v", got, want)
	}
	for r, m := range want {
		if got[r] != m {
			t.Errorf("held[%s] = %v, want %v", r, got[r], m)
		}
	}
}

// TestExecQ2Q3ConcurrentEndToEnd: the full-stack version of the paper's
// headline claim — Q2 and Q3 run concurrently under rule 4′.
func TestExecQ2Q3ConcurrentEndToEnd(t *testing.T) {
	auth := authz.NewTable(false)
	f := newFixture(t, core.Options{Rule4Prime: true, Authorizer: auth})
	tx2 := f.mgr.Begin()
	tx3 := f.mgr.Begin()
	auth.Grant(tx2.ID(), "cells")
	auth.Grant(tx3.ID(), "cells")

	if _, _, err := f.exec.Run(tx2, q2Src); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := f.exec.Run(tx3, q3Src)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Q3 blocked behind Q2")
	}
	if f.mgr.Protocol().Manager().Stats().Waits != 0 {
		t.Error("waits > 0")
	}
	tx2.Abort()
	tx3.Abort()
}

func TestExecRelationScan(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, plan, err := f.exec.Run(tx, `SELECT e FROM e IN effectors FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	if got := plan.Spec.LevelName(plan.Level); got != "relation effectors" {
		t.Errorf("plan level = %s", got)
	}
	held := heldOf(f, tx.ID())
	if held["db1/seg2/effectors"] != lock.S {
		t.Errorf("relation not S-locked: %v", held)
	}
	if len(held) != 3 { // db, seg2, relation
		t.Errorf("lock count = %d: %v", len(held), held)
	}
}

// TestExecResidualPredicate: a non-key predicate filters rows; scanned
// elements are read under locks.
func TestExecResidualPredicate(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.trajectory = 'tr2' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Path.String() != "cells/c1/robots/r2" {
		t.Fatalf("results = %v", res)
	}
}

func TestExecPredicateOperatorsEndToEnd(t *testing.T) {
	f := newFixture(t, core.Options{})
	cases := []struct {
		src  string
		want int
	}{
		{`SELECT e FROM e IN effectors WHERE e.tool <> 't2' FOR READ`, 2},
		{`SELECT e FROM e IN effectors WHERE e.tool < 't2' FOR READ`, 1},
		{`SELECT e FROM e IN effectors WHERE e.tool >= 't2' FOR READ`, 2},
		{`SELECT e FROM e IN effectors WHERE e.tool <= 't9' FOR READ`, 3},
		{`SELECT e FROM e IN effectors WHERE e.tool > 't9' FOR READ`, 0},
		{`SELECT o FROM c IN cells, o IN c.c_objects WHERE o.obj_id < 5 FOR READ`, 1},
	}
	for _, c := range cases {
		tx := f.mgr.Begin()
		res, _, err := f.exec.Run(tx, c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if len(res) != c.want {
			t.Errorf("%s: %d results, want %d", c.src, len(res), c.want)
		}
		tx.Abort()
	}
}

// TestExecUpdateLocksX: FOR UPDATE takes X locks at the plan granule.
func TestExecUpdateLocksX(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	_, _, err := f.exec.Run(tx, `SELECT e FROM e IN effectors WHERE e.eff_id = 'e3' FOR UPDATE`)
	if err != nil {
		t.Fatal(err)
	}
	held := heldOf(f, tx.ID())
	if held["db1/seg2/effectors/e3"] != lock.X {
		t.Errorf("held = %v", held)
	}
	// The X result lock permits a covered update.
	if err := tx.UpdateAtomicAt(store.P("effectors", "e3", "tool"), store.Str("t3b")); err != nil {
		t.Errorf("covered update failed: %v", err)
	}
}

// TestExecNoFollowSkipsCommonData: the §4.5 semantics exploitation — a
// NOFOLLOW update of a robot takes no locks on the effectors library at all.
func TestExecNoFollowSkipsCommonData(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	_, _, err := f.exec.Run(tx, q2Src+" NOFOLLOW")
	if err != nil {
		t.Fatal(err)
	}
	held := heldOf(f, tx.ID())
	for r := range held {
		if r == "db1/seg2" || r == "db1/seg2/effectors" ||
			r == "db1/seg2/effectors/e1" || r == "db1/seg2/effectors/e2" {
			t.Errorf("NOFOLLOW still locked %s", r)
		}
	}
	if held["db1/seg1/cells/c1/robots/r1"] != lock.X {
		t.Errorf("target not locked: %v", held)
	}
}

func TestExecBoundObjectAbsent(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT c FROM c IN cells WHERE c.cell_id = 'zz' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestExecBoundElementAbsent(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r99' FOR UPDATE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestExecTwoHopProjection(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Path.String() != "cells/c1/robots/r1/effectors/e1" {
		t.Errorf("res[0] = %v", res[0].Path)
	}
	// The projected values are the reference BLUs.
	if res[0].Value != (store.Ref{Relation: "effectors", Key: "e1"}) {
		t.Errorf("value = %v", res[0].Value)
	}
}

// TestExecProjectIntermediateVar: SELECT of an upstream variable while
// predicates live deeper; the projected instance gets its own result lock.
func TestExecProjectIntermediateVar(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT c FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r1' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Path.String() != "cells/c1" {
		t.Fatalf("results = %v", res)
	}
	held := heldOf(f, tx.ID())
	if !held["db1/seg1/cells/c1"].Covers(lock.S) {
		t.Errorf("projected object not S-covered: %v", held)
	}
}

// TestExecProjectionDedupes: when a binding after the projected one scans,
// several rows share the projected instance, which is returned once.
func TestExecProjectionDedupes(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT c FROM c IN cells, r IN c.robots FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Path.String() != "cells/c1" {
		t.Fatalf("results = %v, want cells/c1 once for its two robots", res)
	}
}

func TestExecResultsAreClones(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT e FROM e IN effectors WHERE e.eff_id = 'e1' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	res[0].Value.(*store.Tuple).Set("tool", store.Str("hacked"))
	v, _ := f.st.Lookup(store.P("effectors", "e1", "tool"))
	if v != store.Str("t1") {
		t.Error("executor leaked a live value")
	}
}

func TestExecParseAndAnalyzeErrorsPropagate(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	if _, _, err := f.exec.Run(tx, `garbage`); err == nil {
		t.Error("parse error swallowed")
	}
	if _, _, err := f.exec.Run(tx, `SELECT c FROM c IN nowhere`); err == nil {
		t.Error("analyze error swallowed")
	}
}

func TestCompareValueErrors(t *testing.T) {
	if _, err := compareValues(store.Str("a"), store.Int(1)); err == nil {
		t.Error("str vs int compared")
	}
	if _, err := compareValues(store.Bool(true), store.Str("x")); err == nil {
		t.Error("bool vs str compared")
	}
	if _, err := compareValues(store.NewSet(), store.Int(1)); err == nil {
		t.Error("set compared")
	}
	if c, _ := compareValues(store.Int(1), store.Real(1.5)); c != -1 {
		t.Error("int vs real")
	}
	if c, _ := compareValues(store.Bool(false), store.Bool(true)); c != -1 {
		t.Error("bool order")
	}
	if _, err := comparePred(store.Int(1), "??", store.Int(1)); err == nil {
		t.Error("bad op accepted")
	}
}
