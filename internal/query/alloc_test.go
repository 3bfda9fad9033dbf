package query

import (
	"testing"

	"colock/internal/core"
)

// The local-query workload's three statement shapes (see colockbench).
var localQueryShapes = []struct{ name, src string }{
	{"robot-update", "UPDATE r SET trajectory = 'tr123' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1'"},
	{"robot-select", "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR READ"},
	{"cobject-select", "SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' AND o.obj_id = 3 FOR READ"},
}

// TestParseStatementAllocs caps what parsing each local-query statement
// shape allocates: one token slice, one path-segment array, the AST nodes
// and the boxed literals. It uses no pool, so it runs under -race too.
func TestParseStatementAllocs(t *testing.T) {
	ceilings := map[string]float64{"robot-update": 10, "robot-select": 8, "cobject-select": 7}
	for _, sh := range localQueryShapes {
		t.Run(sh.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := ParseStatement(sh.src); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocs", sh.name, allocs)
			if allocs > ceilings[sh.name] {
				t.Errorf("ParseStatement(%s) allocates %.0f objects, ceiling %.0f", sh.name, allocs, ceilings[sh.name])
			}
		})
	}
}

// TestRobotSelectTxnAllocs caps one warmed robot SELECT … FOR READ through
// Executor.RunStatement plus Commit: parse, analysis, plan, the protocol's
// locks, the read and the release, end to end. The held-lock set and the
// grant map come from pools, which -race empties at random, so the test
// skips in race builds.
func TestRobotSelectTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	f := newFixture(t, core.Options{})
	src := localQueryShapes[1].src
	run := func() {
		tx := f.mgr.Begin()
		res, err := f.exec.RunStatement(tx, src)
		if err != nil || len(res.Results) != 1 {
			t.Fatalf("results %v, err %v", res, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the name cache and the pools
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("%.0f allocs", allocs)
	const ceiling = 30
	if allocs > ceiling {
		t.Errorf("robot SELECT transaction allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
