package query

import (
	"strings"
	"testing"

	"colock/internal/core"
	"colock/internal/store"
)

func TestParseStatementKinds(t *testing.T) {
	cases := []struct {
		src  string
		kind StmtKind
	}{
		{q1Src, StmtSelect},
		{`UPDATE r SET trajectory = 'x' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1'`, StmtUpdate},
		{`DELETE r FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r2' NOFOLLOW`, StmtDelete},
		{`INSERT INTO effectors VALUE {eff_id: 'e9', tool: 't9'}`, StmtInsert},
	}
	for _, c := range cases {
		st, err := ParseStatement(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if st.Kind != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.src, st.Kind, c.kind)
		}
	}
	if StmtSelect.String() != "SELECT" || StmtInsert.String() != "INSERT" ||
		StmtUpdate.String() != "UPDATE" || StmtDelete.String() != "DELETE" {
		t.Error("StmtKind strings")
	}
	if !strings.HasPrefix(StmtKind(9).String(), "StmtKind(") {
		t.Error("invalid kind string")
	}
}

func TestParseUpdateDetails(t *testing.T) {
	st, err := ParseStatement(`UPDATE r SET trajectory = 'x', robot_id = 'r1' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' NOFOLLOW`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sets) != 2 {
		t.Fatalf("sets = %v", st.Sets)
	}
	if st.Sets[0].Attrs[0] != "trajectory" || st.Sets[0].Value != store.Str("x") {
		t.Errorf("set[0] = %+v", st.Sets[0])
	}
	if !st.Query.Update || !st.Query.NoFollow || st.Query.Select != "r" {
		t.Errorf("query = %+v", st.Query)
	}
}

func TestParseValueLiterals(t *testing.T) {
	st, err := ParseStatement(`INSERT INTO cells VALUE {
		cell_id: 'c9',
		c_objects: SET(o1: {obj_id: 1, obj_name: 'n'}),
		robots: LIST(r1: {robot_id: 'r1', trajectory: 't', effectors: SET(e1: REF(effectors, 'e1'))})
	}`)
	if err != nil {
		t.Fatal(err)
	}
	v := st.InsertValue
	if v.Get("cell_id") != store.Str("c9") {
		t.Error("atomic field")
	}
	objs := v.Get("c_objects").(*store.Set)
	if objs.Len() != 1 || objs.Get("o1").(*store.Tuple).Get("obj_id") != store.Int(1) {
		t.Errorf("set literal = %v", objs)
	}
	robots := v.Get("robots").(*store.List)
	if robots.Len() != 1 {
		t.Fatalf("list literal = %v", robots)
	}
	effs := robots.Get("r1").(*store.Tuple).Get("effectors").(*store.Set)
	if effs.Get("e1") != (store.Ref{Relation: "effectors", Key: "e1"}) {
		t.Errorf("ref literal = %v", effs.Get("e1"))
	}
}

func TestParseEmptyCollections(t *testing.T) {
	st, err := ParseStatement(`INSERT INTO cells VALUE {cell_id: 'c9', c_objects: SET(), robots: LIST()}`)
	if err != nil {
		t.Fatal(err)
	}
	if st.InsertValue.Get("c_objects").(*store.Set).Len() != 0 {
		t.Error("empty SET()")
	}
	if st.InsertValue.Get("robots").(*store.List).Len() != 0 {
		t.Error("empty LIST()")
	}
	// Empty tuple literal.
	st2, err := ParseStatement(`INSERT INTO effectors VALUE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.InsertValue.FieldNames()) != 0 {
		t.Error("empty tuple")
	}
}

func TestParseStatementErrors(t *testing.T) {
	bad := []string{
		``,
		`42`,
		`DROP TABLE cells`,
		`UPDATE r FROM c IN cells`,                    // missing SET
		`UPDATE r SET x FROM c IN cells`,              // missing '='
		`UPDATE r SET x = FROM c IN cells`,            // missing literal
		`UPDATE r SET x = 1`,                          // missing FROM
		`UPDATE z SET x = 1 FROM c IN cells`,          // unbound target
		`DELETE FROM c IN cells`,                      // missing target
		`DELETE z FROM c IN cells`,                    // unbound target
		`DELETE c FROM c IN cells trailing`,           // trailing input
		`INSERT effectors VALUE {}`,                   // missing INTO
		`INSERT INTO effectors {}`,                    // missing VALUE
		`INSERT INTO effectors VALUE 42`,              // non-tuple value
		`INSERT INTO effectors VALUE {x: }`,           // missing value
		`INSERT INTO effectors VALUE {x 1}`,           // missing ':'
		`INSERT INTO effectors VALUE {x: 1`,           // missing '}'
		`INSERT INTO e VALUE {x: SET(a 1)}`,           // missing ':' in elem
		`INSERT INTO e VALUE {x: SET(a: 1}`,           // missing ')'
		`INSERT INTO e VALUE {x: SET a: 1)}`,          // missing '('
		`INSERT INTO e VALUE {x: REF(effectors)}`,     // missing key
		`INSERT INTO e VALUE {x: REF(effectors, 'k'}`, // missing ')'
		`INSERT INTO e VALUE {x: REF('rel', 'k')}`,    // non-ident relation
		`INSERT INTO effectors VALUE {} trailing`,     // trailing input
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestExecUpdateStatement(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	res, err := f.exec.RunStatement(tx, `UPDATE r SET trajectory = 'rewired' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != StmtUpdate || res.Affected != 1 {
		t.Errorf("result = %+v", res)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _ := f.st.Lookup(store.P("cells", "c1", "robots", "r1", "trajectory"))
	if v != store.Str("rewired") {
		t.Errorf("value = %v", v)
	}
}

func TestExecUpdateMultipleRowsAndSets(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	res, err := f.exec.RunStatement(tx, `UPDATE e SET tool = 'standard' FROM e IN effectors`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Errorf("affected = %d", res.Affected)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"e1", "e2", "e3"} {
		v, _ := f.st.Lookup(store.P("effectors", e, "tool"))
		if v != store.Str("standard") {
			t.Errorf("%s = %v", e, v)
		}
	}
}

func TestExecUpdateValidatesSets(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	bad := []string{
		`UPDATE r SET nope = 'x' FROM c IN cells, r IN c.robots`,      // unknown attr
		`UPDATE r SET effectors = 'x' FROM c IN cells, r IN c.robots`, // non-atomic
		`UPDATE r SET trajectory = 42 FROM c IN cells, r IN c.robots`, // wrong kind
		`UPDATE c SET robots.r1 = 'x' FROM c IN cells`,                // not a tuple chain
		`UPDATE r SET nope = 'x' FROM c IN cells, r IN c.zz`,          // query fails analysis first
	}
	for _, src := range bad {
		if _, err := f.exec.RunStatement(tx, src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	if held := heldOf(f, tx.ID()); len(held) != 0 {
		t.Errorf("rejected updates took locks: %v", held)
	}
}

func TestExecDeleteElement(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	res, err := f.exec.RunStatement(tx, `DELETE r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("affected = %d", res.Affected)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ids, _ := f.st.CollectionIDs(store.P("cells", "c1", "robots"))
	if len(ids) != 1 || ids[0] != "r1" {
		t.Errorf("robots = %v", ids)
	}
	if err := f.st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestExecDeleteRobotNoFollow is the §4.5 example: deleting a robot without
// the right to delete effectors needs NO locks on common data at all.
func TestExecDeleteRobotNoFollow(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	res, err := f.exec.RunStatement(tx, `DELETE r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' NOFOLLOW`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("affected = %d", res.Affected)
	}
	for r := range heldOf(f, tx.ID()) {
		if strings.Contains(r, "effectors") || strings.Contains(r, "seg2") {
			t.Errorf("NOFOLLOW delete locked common data: %s", r)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The effectors library is untouched.
	if f.st.Count("effectors") != 3 {
		t.Error("library damaged")
	}
}

func TestExecDeleteObject(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	res, err := f.exec.RunStatement(tx, `DELETE e FROM e IN effectors WHERE e.eff_id = 'e1'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("affected = %d", res.Affected)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if f.st.Get("effectors", "e1") != nil {
		t.Error("object survived delete")
	}
	// Dangling reference from robot r1 — detectable by the checker (the
	// language leaves referential actions to the application, like the
	// paper does).
	if err := f.st.CheckIntegrity(); err == nil {
		t.Error("expected dangling-reference report")
	}
}

func TestExecInsertStatement(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	res, err := f.exec.RunStatement(tx, `INSERT INTO effectors VALUE {eff_id: 'e9', tool: 't9'}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != StmtInsert || res.Affected != 1 {
		t.Errorf("result = %+v", res)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _ := f.st.Lookup(store.P("effectors", "e9", "tool"))
	if v != store.Str("t9") {
		t.Errorf("inserted = %v", v)
	}
}

func TestExecInsertComplexObject(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	_, err := f.exec.RunStatement(tx, `INSERT INTO cells VALUE {
		cell_id: 'c2',
		c_objects: SET(o1: {obj_id: 1, obj_name: 'x'}),
		robots: LIST(r1: {robot_id: 'r1', trajectory: 't', effectors: SET(e3: REF(effectors, 'e3'))})
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	v, err := f.st.Lookup(store.P("cells", "c2", "robots", "r1", "effectors", "e3"))
	if err != nil || v != (store.Ref{Relation: "effectors", Key: "e3"}) {
		t.Errorf("nested insert = %v, %v", v, err)
	}
}

func TestExecInsertErrors(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	bad := []string{
		`INSERT INTO nowhere VALUE {x: 1}`,                      // unknown relation
		`INSERT INTO effectors VALUE {eff_id: 'e9'}`,            // missing field
		`INSERT INTO effectors VALUE {eff_id: '', tool: 'x'}`,   // empty key
		`INSERT INTO effectors VALUE {eff_id: 'e1', tool: 'x'}`, // duplicate key
	}
	for _, src := range bad {
		if _, err := f.exec.RunStatement(tx, src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestExecStatementAbortUndoesDML(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	for _, src := range []string{
		`INSERT INTO effectors VALUE {eff_id: 'e9', tool: 't9'}`,
		`UPDATE e SET tool = 'mutated' FROM e IN effectors WHERE e.eff_id = 'e3'`,
		`DELETE r FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r1'`,
	} {
		if _, err := f.exec.RunStatement(tx, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	tx.Abort()
	if f.st.Get("effectors", "e9") != nil {
		t.Error("insert survived abort")
	}
	v, _ := f.st.Lookup(store.P("effectors", "e3", "tool"))
	if v != store.Str("t3") {
		t.Error("update survived abort")
	}
	ids, _ := f.st.CollectionIDs(store.P("cells", "c1", "robots"))
	if len(ids) != 2 {
		t.Error("delete survived abort")
	}
}
