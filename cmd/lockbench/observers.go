package main

// Observer overhead benchmark: what each observability surface costs when
// attached at the deployed 1-in-64 sampling, against the same stack without
// it. One row per observer × goroutines, in the "overhead" row family
// benchdiff reads; the bar is ≤5% on every row of a full report. Rows:
//
//   - collector: lock.Manager with an obs.Collector sink vs no sinks;
//   - recorder: core.Protocol with a trace.Recorder tracer (span trees for
//     1-in-64 user-level LockPaths) vs untraced;
//   - health: lock.Manager with a health.Monitor sink vs no sinks;
//   - journal: collector + journal.Writer vs the collector alone, the
//     marginal cost of durability in a deployment that already observes
//     events (colockd's and colockshell's configuration).
//
// The lock-level rows run observerLocksPerTxn disjoint X locks per worker
// transaction, then ReleaseAll; the recorder row runs observerPathsPerTxn S
// LockPaths on the paper database's effector library. Budget math: an
// uncontended acquire/release pair costs well under a microsecond, so 5% is
// a few tens of nanoseconds. Sampling keeps an unsampled operation to one
// atomic load plus a counter add, and the sampled 1-in-64 amortize the clock
// reads and span allocation.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"colock/internal/core"
	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/obs"
	"colock/internal/store"
	"colock/internal/trace"
)

// observerSampleShift is the sampling exponent of every observed side:
// 1 in 2^6 = 64 operations (or user-level lock calls) is observed.
const observerSampleShift = 6

// observerLocksPerTxn is the lock-level transaction size.
const observerLocksPerTxn = 64

// observerPathsPerTxn is the recorder row's LockPaths per transaction.
const observerPathsPerTxn = 3

// observerRow is one observer × goroutines row. The ops/s columns are each
// side's best slice; OverheadPct is the median within-pair time ratio
// observed/base minus one, in percent.
type observerRow struct {
	Observer          string  `json:"observer"`
	Baseline          string  `json:"baseline"` // "bare" or "collector"
	Goroutines        int     `json:"goroutines"`
	BaseOpsPerSec     float64 `json:"base_ops_per_sec"`
	ObservedOpsPerSec float64 `json:"observed_ops_per_sec"`
	OverheadPct       float64 `json:"overhead_pct"`
}

type observersBenchReport struct {
	Benchmark   string        `json:"benchmark"`
	Description string        `json:"description"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Quick       bool          `json:"quick"`
	SampleShift uint8         `json:"sample_shift"`
	LocksPerTxn int           `json:"locks_per_txn"`
	PathsPerTxn int           `json:"paths_per_txn"`
	Overhead    []observerRow `json:"overhead"`
	// Evidence that the sampled observers were live: recorder roots and
	// flight-recorder spans, and records the journal persisted.
	SampledCalls   uint64 `json:"sampled_calls"`
	SpanCount      uint64 `json:"span_count"`
	JournalRecords uint64 `json:"journal_records"`
}

// observedManager is a lock manager feeding sinks at the observer sampling.
func observedManager(sinks ...lock.EventSink) *lock.Manager {
	return lock.NewManager(lock.Options{Sinks: sinks, EventSampleShift: observerSampleShift})
}

func newCollector() *obs.Collector { return obs.NewCollector(obs.Options{RingSize: 256}) }

// lockTxn is the lock-level transaction body on m: worker id X-locks its own
// observerLocksPerTxn resources, then releases them all.
func lockTxn(m *lock.Manager, workers int) func(id int) {
	rs := make([][]lock.Resource, workers)
	for i := range rs {
		rs[i] = make([]lock.Resource, observerLocksPerTxn)
		for k := range rs[i] {
			rs[i][k] = lock.Resource(fmt.Sprintf("w%d/obj%d", i, k))
		}
	}
	return func(id int) {
		txn := lock.TxnID(id + 1)
		for _, r := range rs[id] {
			_ = m.AcquireCtx(context.Background(), txn, r, lock.X)
		}
		m.ReleaseAll(txn)
	}
}

// protoTxn is the protocol-level transaction body on a fresh paper
// database: S LockPaths on the three effectors, release, and (when traced)
// the recorder's end-of-transaction flush.
func protoTxn(rec *trace.Recorder) func(id int) {
	st := store.PaperDatabase()
	mgr := lock.NewManager(lock.Options{})
	var opts core.Options
	if rec != nil {
		opts.Tracer = rec
	}
	p := core.NewProtocol(mgr, st, core.NewNamer(st.Catalog(), false), opts)
	paths := [observerPathsPerTxn]store.Path{
		store.P("effectors", "e1"),
		store.P("effectors", "e2"),
		store.P("effectors", "e3"),
	}
	return func(id int) {
		txn := lock.TxnID(id + 1)
		for _, pa := range paths {
			p.LockPath(txn, pa, lock.S)
		}
		mgr.ReleaseAll(txn)
		if rec != nil {
			rec.FinishTxn(txn, "commit")
		}
	}
}

// runObserversBench measures every observer at each worker count with the
// paired-ABBA timer (observed against base side).
func runObserversBench(sc scale) (report, error) {
	rep := &observersBenchReport{
		Benchmark: "observersbench",
		Description: "throughput cost of each observer attached at 1-in-64 sampling: obs.Collector, " +
			"health.Monitor and journal.Writer on lock-level transactions of disjoint X locks, " +
			"trace.Recorder on protocol-level S LockPaths of the paper database; overhead_pct is the " +
			"median within-pair time ratio observed/base minus one; the journal row's base carries the collector",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       sc.quick,
		SampleShift: observerSampleShift,
		LocksPerTxn: observerLocksPerTxn,
		PathsPerTxn: observerPathsPerTxn,
	}
	for _, w := range sc.workers {
		jdir, err := os.MkdirTemp("", "lockbench-journal-*")
		if err != nil {
			return nil, err
		}
		jw, err := journal.Open(jdir, journal.Options{})
		if err != nil {
			os.RemoveAll(jdir)
			return nil, err
		}
		rec := trace.NewRecorder(trace.Options{SampleShift: observerSampleShift})
		rows := []struct {
			observer, baseline string
			opsPerIter         int
			observed, base     func(id int)
		}{
			{"collector", "bare", observerLocksPerTxn,
				lockTxn(observedManager(newCollector()), w), lockTxn(lock.NewManager(lock.Options{}), w)},
			{"recorder", "bare", observerPathsPerTxn, protoTxn(rec), protoTxn(nil)},
			{"health", "bare", observerLocksPerTxn,
				lockTxn(observedManager(health.NewMonitor(health.Options{Window: time.Second})), w),
				lockTxn(lock.NewManager(lock.Options{}), w)},
			{"journal", "collector", observerLocksPerTxn,
				lockTxn(observedManager(newCollector(), jw), w), lockTxn(observedManager(newCollector()), w)},
		}
		for _, r := range rows {
			p := pairABBA(w, r.opsPerIter, 35, sc.dur/12, r.observed, r.base)
			rep.Overhead = append(rep.Overhead, observerRow{
				Observer:          r.observer,
				Baseline:          r.baseline,
				Goroutines:        w,
				BaseOpsPerSec:     p.bOps,
				ObservedOpsPerSec: p.aOps,
				OverheadPct:       (p.ratio - 1) * 100,
			})
		}
		rep.SampledCalls += rec.SampledCalls()
		rep.SpanCount += rec.SpanCount()
		err = jw.Close()
		rep.JournalRecords += jw.Status().Records
		os.RemoveAll(jdir)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (rep *observersBenchReport) print() {
	tab := metrics.NewTable(
		fmt.Sprintf("Observer overhead (GOMAXPROCS=%d, 1-in-%d sampling)", rep.GOMAXPROCS, 1<<rep.SampleShift),
		"observer", "baseline", "goroutines", "base ops/s", "observed ops/s", "overhead")
	for _, r := range rep.Overhead {
		tab.Addf(r.Observer, r.Baseline, r.Goroutines,
			fmt.Sprintf("%.0f", r.BaseOpsPerSec),
			fmt.Sprintf("%.0f", r.ObservedOpsPerSec),
			metrics.Pct(r.OverheadPct/100))
	}
	fmt.Println(tab.String())
	fmt.Printf("recorder sampled %d lock calls into %d spans; journal persisted %d records\n",
		rep.SampledCalls, rep.SpanCount, rep.JournalRecords)
}
