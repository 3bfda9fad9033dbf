package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"colock/client"
	"colock/internal/lock"
	"colock/internal/query"
	"colock/internal/txn"
	"colock/internal/workload"
)

// database is the database every workload runs on: 256 cells of 16
// c_objects and 4 robots, each robot referencing 2 of 64 shared effectors,
// so each effector is shared by about 32 robots. It is generated from a
// fixed seed, so that every run measures the same data and --seed varies
// only the transactions: which robots of remote-hotspot's 4 hot cells
// share effectors depends on the database seed and moves that workload's
// throughput by about 12% from one database to another.
var database = workload.Config{
	Seed:              1,
	Cells:             256,
	CObjectsPerCell:   16,
	RobotsPerCell:     4,
	EffectorsPerRobot: 2,
	Effectors:         64,
}

// scriptPool is the number of distinct transactions generated per run;
// the clients cycle through them.
const scriptPool = 4096

// spec is one workload: how its environment is built and how one
// transaction runs.
type spec struct {
	name string
	// remote workloads go through internal/server and the client package
	// over loopback TCP, and the server's manager carries colockd's
	// observer stack; the others call an in-process txn.Manager.
	remote bool
	// rule4prime turns on rule 4′ with an authorizer that denies modify on
	// the effectors library.
	rule4prime bool
	// mayFail allows transactions that exhaust their retries.
	mayFail bool
	inputs  func(seed int64) *inputs
	txn     func(w *worker, i int) (attempts int, err error)
}

// inputs are a run's generated transactions: lock scripts for the remote
// workloads, HDBL statements for local-query.
type inputs struct {
	scripts [][]workload.Op
	stmts   [][]statement
}

// statement is one HDBL statement of local-query. robot marks the
// statements that bind one robot, which must affect or return exactly one
// row. The c_object SELECTs bind obj_id, whose value the analyzer takes as
// the element ID; the generated database names elements "o<n>", so they
// return no row today.
type statement struct {
	src   string
	robot bool
}

func (in *inputs) len() int {
	if in.scripts != nil {
		return len(in.scripts)
	}
	return len(in.stmts)
}

// workloads lists every workload the program runs. BENCHMARK.json lists
// remote-read and local-query; remote-hotspot runs on request only,
// because on a small shared machine its figures move with the host's load
// by more than any bound the benchmark may set (see README.md).
var workloads = []*spec{
	{
		name:   "remote-read",
		remote: true,
		inputs: func(seed int64) *inputs {
			return &inputs{scripts: workload.Scripts(database, workload.MixConfig{
				Seed: seed, Txns: scriptPool, OpsPerTxn: 16, WriteFraction: 0, SharedFraction: 0.05,
			})}
		},
		txn: (*worker).remoteRead,
	},
	{
		name:       "local-query",
		rule4prime: true,
		inputs:     func(seed int64) *inputs { return &inputs{stmts: statements(seed, scriptPool)} },
		txn:        (*worker).localQuery,
	},
	{
		name:    "remote-hotspot",
		remote:  true,
		mayFail: true,
		inputs: func(seed int64) *inputs {
			hot := database
			hot.Cells = 4 // scripts address only cells c0..c3 of the full database
			return &inputs{scripts: workload.Scripts(hot, workload.MixConfig{
				Seed: seed, Txns: scriptPool, OpsPerTxn: 8, WriteFraction: 0.5, SharedFraction: 0.1,
			})}
		},
		txn: (*worker).remoteHotspot,
	},
}

func workloadByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func (s *spec) traffic() string {
	if s.remote {
		return "loopback TCP to an internal/server instance in the benchmark process"
	}
	return "in-process txn.Manager and query.Executor"
}

// statements generates n transactions of 4 statements over uniformly
// chosen cells: 15% robot UPDATE, 45% robot SELECT, 40% c_object SELECT.
func statements(seed int64, n int) [][]statement {
	cfg := database
	rng := rand.New(rand.NewSource(seed))
	out := make([][]statement, n)
	for t := range out {
		stmts := make([]statement, 4)
		for k := range stmts {
			cell := rng.Intn(cfg.Cells)
			x := rng.Float64()
			switch {
			case x < 0.15:
				stmts[k] = statement{fmt.Sprintf("UPDATE r SET trajectory = 'tr%d' FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c%d' AND r.robot_id = 'r%d'",
					rng.Intn(1<<20), cell, rng.Intn(cfg.RobotsPerCell)), true}
			case x < 0.60:
				stmts[k] = statement{fmt.Sprintf("SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c%d' AND r.robot_id = 'r%d' FOR READ",
					cell, rng.Intn(cfg.RobotsPerCell)), true}
			default:
				stmts[k] = statement{fmt.Sprintf("SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c%d' AND o.obj_id = %d FOR READ",
					cell, rng.Intn(cfg.CObjectsPerCell)), false}
			}
		}
		out[t] = stmts
	}
	return out
}

func opMode(op workload.Op) lock.Mode {
	if op.Write {
		return lock.X
	}
	return lock.S
}

// remoteRead runs Begin, the script's LockPaths and Commit with no retry:
// the script takes only S locks, so nothing can wait or abort.
func (w *worker) remoteRead(i int) (int, error) {
	ctx := context.Background()
	t0 := time.Now()
	t, err := w.client.Begin(ctx)
	if err != nil {
		return 1, err
	}
	t1 := time.Now()
	w.span(spanBegin, t0, t1)
	for _, op := range w.env.in.scripts[i] {
		t0 := time.Now()
		err := t.LockPath(ctx, op.Path, opMode(op))
		w.op(0, t0, time.Now())
		if err != nil {
			t.Abort()
			return 1, err
		}
	}
	t2 := time.Now()
	err = t.Commit()
	w.span(spanCommit, t2, time.Now())
	return 1, err
}

// remoteHotspot runs the script through client.RunWithRetry with its
// default attempts. The begin span of a retried attempt starts where the
// failed attempt's body returned, so it includes that attempt's abort.
func (w *worker) remoteHotspot(i int) (int, error) {
	ctx := context.Background()
	attempts := 0
	mark := time.Now()
	err := w.client.RunWithRetry(ctx, func(t *client.Txn) error {
		attempts++
		start := time.Now()
		w.span(spanBegin, mark, start)
		for _, op := range w.env.in.scripts[i] {
			t0 := time.Now()
			err := t.LockPath(ctx, op.Path, opMode(op))
			w.op(0, t0, time.Now())
			if err != nil {
				w.noteErr(err)
				mark = time.Now()
				return err
			}
		}
		mark = time.Now()
		return nil
	})
	w.span(spanCommit, mark, time.Now())
	return attempts, err
}

// localQuery runs the transaction's statements through the in-process
// retry loop. Every robot statement must affect or return exactly one
// row.
func (w *worker) localQuery(i int) (int, error) {
	ctx := context.Background()
	attempts := 0
	mark := time.Now()
	err := w.env.tm.RunWithRetry(ctx, func(t *txn.Txn) error {
		attempts++
		start := time.Now()
		w.span(spanBegin, mark, start)
		for _, st := range w.env.in.stmts[i] {
			opID := w.spanID()
			t0 := time.Now()
			res, err := w.runStatement(t, st.src, opID)
			w.op(opID, t0, time.Now())
			if err != nil {
				w.noteErr(err)
				mark = time.Now()
				return err
			}
			rows := len(res.Results) + res.Affected
			w.rows += rows
			if st.robot {
				w.robotStmts++
				if rows != 1 {
					w.badRows++
				}
			}
		}
		mark = time.Now()
		return nil
	})
	w.span(spanCommit, mark, time.Now())
	return attempts, err
}

// runStatement is Executor.RunStatement; when tracing it is split into its
// parse, plan and execute calls, each with its own span. The traced
// execute repeats the analysis and plan inside ExecStatement, so the
// query.exec figure subtracts the plan time.
func (w *worker) runStatement(t *txn.Txn, src string, opID uint64) (*query.StatementResult, error) {
	if w.tr == nil {
		return w.env.exec.RunStatement(t, src)
	}
	t0 := time.Now()
	stmt, err := query.ParseStatement(src)
	t1 := time.Now()
	w.tr.add(spanParse, w.tr.newID(), opID, t0, t1)
	if err != nil {
		return nil, err
	}
	if err := planStatement(w.env, stmt); err != nil {
		return nil, err
	}
	t2 := time.Now()
	w.tr.add(spanPlan, w.tr.newID(), opID, t1, t2)
	res, err := w.env.exec.ExecStatement(t, stmt)
	w.tr.add(spanExec, w.tr.newID(), opID, t2, time.Now())
	return res, err
}
