package main

// Hot-path benchmark: measures what the PR-4 fast path — the per-transaction
// granted-mode cache, batched chain acquisition and the allocation-free
// namer — buys on a repeated-leaf protocol workload, against the same stack
// with the fast path disabled (DisableFastPath + Namer.DisableCache). Emits
// machine-readable BENCH_PR4.json.
//
// The acceptance bar for the fast-path PR is ≥2x single-goroutine speedup.
// Each benchmark transaction S-locks five hot leaves of the paper database
// hotRepeat times; the baseline walks the schema and the lock manager for
// every ancestor of every call, the fast side pays one batched manager round
// per chain and serves the repeats from the cache.

import (
	"fmt"
	"runtime"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/store"
)

// hotRepeat is how many times each transaction revisits its leaf set — the
// "hot" in hotbench. 8 revisits of 5 leaves = 40 LockPaths per transaction.
const hotRepeat = 8

// hotLeafCount is the number of distinct leaves per revisit.
const hotLeafCount = 5

// hotPathsPerTxn is the number of LockPath calls per benchmark transaction.
const hotPathsPerTxn = hotRepeat * hotLeafCount

// hotResult is one worker-count row. The ops/sec columns are each side's
// best (least interfered-with) slice; Speedup is the median within-pair time
// ratio baseline/fast, which cancels machine-load drift — so the two
// throughput columns need not reproduce the speedup exactly.
type hotResult struct {
	Goroutines        int     `json:"goroutines"`
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec"`
	FastOpsPerSec     float64 `json:"fast_ops_per_sec"`
	Speedup           float64 `json:"speedup"`
}

type hotBenchReport struct {
	Benchmark   string      `json:"benchmark"`
	Description string      `json:"description"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	PathsPerTxn int         `json:"paths_per_txn"`
	Results     []hotResult `json:"results"`
	// Allocations per LockPath at one goroutine, measured via
	// runtime.ReadMemStats over a fixed single-threaded run.
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op"`
	FastAllocsPerOp     float64 `json:"fast_allocs_per_op"`
	// Fast-side evidence that the fast path was actually live.
	FastPathHits uint64 `json:"fast_path_hits"`
	BatchCalls   uint64 `json:"batch_calls"`
}

// hotWorkload builds one side of the comparison: the paper database behind a
// protocol, with the fast path either fully enabled (grant cache + name
// cache + batching) or fully disabled. The returned body runs one
// transaction: hotRepeat S-lock sweeps over five hot leaves, then release.
func hotWorkload(fast bool) (func(id int), *lock.Manager, *core.Protocol) {
	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	var opts core.Options
	if !fast {
		nm.DisableCache()
		opts.DisableFastPath = true
	}
	mgr := lock.NewManager(lock.Options{})
	p := core.NewProtocol(mgr, st, nm, opts)
	paths := [hotLeafCount]store.Path{
		store.P("cells", "c1", "robots", "r1", "trajectory"),
		store.P("cells", "c1", "robots", "r2", "trajectory"),
		store.P("effectors", "e1", "tool"),
		store.P("effectors", "e2", "tool"),
		store.P("effectors", "e3", "tool"),
	}
	return func(id int) {
		txn := lock.TxnID(id + 1)
		for rep := 0; rep < hotRepeat; rep++ {
			for _, pa := range paths {
				p.LockPath(txn, pa, lock.S)
			}
		}
		mgr.ReleaseAll(txn)
	}, mgr, p
}

// hotAllocsPerOp measures single-threaded heap allocations per LockPath for
// one side, by Mallocs delta over a fixed run.
func hotAllocsPerOp(fast bool) float64 {
	body, _, _ := hotWorkload(fast)
	const iters = 2000
	for i := 0; i < 50; i++ { // warm the caches and the allocator
		body(0)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		body(0)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters*hotPathsPerTxn)
}

// runHotBench measures the fast-path speedup at each worker count with the
// paired-ABBA timer (baseline against fast side), then the allocation probe.
func runHotBench(sc scale) (report, error) {
	rep := &hotBenchReport{
		Benchmark: "hotbench",
		Description: "protocol-level LockPath throughput with the PR-4 fast path " +
			"(granted-mode cache + batched chain acquisition + name cache) vs the same stack disabled; " +
			fmt.Sprintf("%d repeated-leaf S LockPaths on the paper database per transaction", hotPathsPerTxn),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		PathsPerTxn: hotPathsPerTxn,
	}
	for _, w := range sc.workers {
		runBase, _, _ := hotWorkload(false)
		runFast, fastMgr, fastProto := hotWorkload(true)
		p := pairABBA(w, hotPathsPerTxn, 35, sc.dur/12, runBase, runFast)
		rep.Results = append(rep.Results, hotResult{
			Goroutines:        w,
			BaselineOpsPerSec: p.aOps,
			FastOpsPerSec:     p.bOps,
			Speedup:           p.ratio,
		})
		rep.FastPathHits += fastProto.Stats().FastPathHits
		rep.BatchCalls += fastMgr.Stats().Batches
	}
	rep.BaselineAllocsPerOp = hotAllocsPerOp(false)
	rep.FastAllocsPerOp = hotAllocsPerOp(true)
	return rep, nil
}

func (rep *hotBenchReport) print() {
	tab := metrics.NewTable(
		fmt.Sprintf("Fast-path speedup (GOMAXPROCS=%d, %d LockPaths/txn)", rep.GOMAXPROCS, rep.PathsPerTxn),
		"goroutines", "baseline ops/s", "fast ops/s", "speedup")
	for _, r := range rep.Results {
		tab.Addf(r.Goroutines,
			fmt.Sprintf("%.0f", r.BaselineOpsPerSec),
			fmt.Sprintf("%.0f", r.FastOpsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	fmt.Println(tab.String())
	fmt.Printf("allocs/op: baseline %.1f, fast %.1f; %d cache hits, %d batched manager rounds\n",
		rep.BaselineAllocsPerOp, rep.FastAllocsPerOp, rep.FastPathHits, rep.BatchCalls)
}
