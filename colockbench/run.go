package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"colock/internal/core"
	"colock/internal/query"
	"colock/internal/txn"
)

// runUntraced builds the environment setupRepeats times and measures each
// build for an equal share of cfg.dur. setup_s is the median build time;
// the other end-to-end metrics are medians over the slices of all builds,
// so neither a burst of outside load nor the state of one build sets them.
func runUntraced(cfg config) (*report, error) {
	r := newReport(cfg)
	in := cfg.workload.inputs(cfg.seed)
	var setups []float64
	var phases []*phase
	for i := 0; i < setupRepeats; i++ {
		label := fmt.Sprintf("build %d", i+1)
		t0 := time.Now()
		e, err := newEnv(cfg.workload, in, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		p, err := e.measure(cfg.dur/setupRepeats, nil)
		if err != nil {
			e.shutdown()
			return nil, err
		}
		e.checkPhase(r, p, label)
		e.close(r, label)
		phases = append(phases, p)
		r.attempted += p.started()
		r.failed += p.failed()
	}
	rss, err := maxRSSMiB()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", median(setups))
	r.samples("setup", setupRepeats)
	r.set("max_rss_mb", rss)
	endToEnd(r, phases, false)
	return r, nil
}

// endToEnd reports the figures of measured phases: the end-to-end metrics
// and, through the other setter, the p99 latencies, which carry no bound.
// The untraced run reports the end-to-end metrics and prints the rest as
// info; the traced run's untraced phase does the reverse.
func endToEnd(r *report, phases []*phase, traced bool) {
	st := stats(phases...)
	e2e, other := r.set, r.setInfo
	if traced {
		e2e, other = r.setInfo, r.set
	}
	e2e("txn_per_s", st.txnPerS)
	e2e("txn_p50_us", st.txnP50)
	e2e("txn_p90_us", st.txnP90)
	e2e("op_p50_us", st.opP50)
	e2e("op_p90_us", st.opP90)
	e2e("cpu_us_per_txn", st.cpuPerTxn)
	other("txn_p99_us", st.txnP99)
	other("op_p99_us", st.opP99)
	r.samples("txn", st.txns)
	r.samples("op", st.ops)
	r.samples("slices", st.slices)
	r.samples("txn_beyond_p99_fewest_in_a_slice", st.txnsBeyondP99)
	r.samples("op_beyond_p99_fewest_in_a_slice", st.opsBeyondP99)
	r.notes = append(r.notes, fmt.Sprintf("txn/s per slice: %.0f", st.sliceTxnPerS))
	if traced {
		return // counterMetrics reports the ratios
	}
	var attempts, commits, failed, started int
	for _, p := range phases {
		attempts, commits, failed, started = attempts+p.attempts(), commits+p.commits(), failed+p.failed(), started+p.started()
	}
	r.setInfo("abort_ratio", float64(attempts-commits-failed)/float64(max(attempts, 1)))
	r.setInfo("failed_ratio", float64(failed)/float64(max(started, 1)))
}

// runTraced measures an untraced phase for counters and a traced phase
// for spans, each for half of cfg.dur, then runs the layer ladder and the
// codec loop, and reports the per-layer metrics.
func runTraced(cfg config) (*report, error) {
	r := newReport(cfg)
	w := cfg.workload
	in := w.inputs(cfg.seed)
	half := cfg.dur / 2

	ea, err := newEnv(w, in, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	pa, err := ea.measure(half, nil)
	if err != nil {
		ea.shutdown()
		return nil, err
	}
	ea.checkPhase(r, pa, "untraced phase")
	ea.close(r, "untraced phase")
	endToEnd(r, []*phase{pa}, true)
	counterMetrics(r, pa)

	eb, err := newEnv(w, in, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	epoch := time.Now()
	var hook func()
	if !w.remote {
		eb.hist = txn.NewHistory()
		eb.tm.EnableHistory(eb.hist)
		var commits atomic.Int64
		hook = func() {
			if commits.Add(1) == historyTxns {
				eb.tm.EnableHistory(nil)
			}
		}
	}
	pb, err := eb.measure(half, func(wk *worker) {
		wk.tr = &spanBuf{epoch: epoch, worker: uint64(wk.id + 1)}
		wk.commitHook = hook
	})
	if err != nil {
		eb.shutdown()
		return nil, err
	}
	eb.checkPhase(r, pb, "traced phase")
	if eb.hist != nil {
		eb.tm.EnableHistory(nil)
		r.checkErr(fmt.Sprintf("traced phase: history of %d committed txns is conflict-serializable", eb.hist.CommittedCount()),
			eb.hist.CheckConflictSerializable())
	}
	eb.close(r, "traced phase")
	r.set("trace.overhead_ratio", stats(pb).txnPerS/stats(pa).txnPerS)
	spanMetrics(r, w, pb)
	eventMetrics(r, eb, pb)
	r.attempted, r.failed = pa.started()+pb.started(), pa.failed()+pb.failed()

	path, err := writeSpans(cfg, r, pb)
	if err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("spans of the traced phase written to %s", path))
	r.notes = append(r.notes, tailFinding(pb)...)
	for _, wk := range pb.workers {
		wk.tr = nil // the spans are written; free them before the ladder
	}
	runtime.GC()

	lad, err := runLadder(cfg.seed, cfg.ladder)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for _, rung := range ladderRungs {
		r.set("ladder."+rung, lad[rung])
	}
	r.notes = append(r.notes, "ladder: "+ladderString(lad),
		fmt.Sprintf("ladder: client over txn %.2fx, server over txn %.2fx (one goroutine, full propagation)", lad["client"]/lad["txn"], lad["server"]/lad["txn"]))
	codec, err := codecNsPerOp(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	r.set("wire.codec_ns_per_op", codec)
	return r, nil
}

// counterMetrics reports the per-layer counters of an untraced phase.
func counterMetrics(r *report, p *phase) {
	b, a := p.before, p.after
	per := func(v uint64) float64 { return p.perCommit(float64(v)) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	attempts := p.attempts()
	r.set("abort_ratio", float64(attempts-p.commits()-p.failed())/float64(max(attempts, 1)))
	r.set("failed_ratio", float64(p.failed())/float64(max(p.started(), 1)))

	srv := func(name string) float64 { return a.server[name] - b.server[name] }
	r.set("server.frames_read_per_txn", p.perCommit(srv("colock_server_frames_read_total")))
	r.set("server.frames_written_per_txn", p.perCommit(srv("colock_server_frames_written_total")))
	r.set("server.error_replies_per_txn", p.perCommit(srv("colock_server_error_replies_total")))
	r.set("server.busy_refusals", srv("colock_server_busy_refusals_total"))

	ops := float64(max(p.ops(), 1))
	r.set("proc.syscr_per_op", float64(a.syscr-b.syscr)/ops)
	r.set("proc.syscw_per_op", float64(a.syscw-b.syscw)/ops)

	cs := core.ProtocolStats{
		Requests:             a.core.Requests - b.core.Requests,
		UpwardLocks:          a.core.UpwardLocks - b.core.UpwardLocks,
		DownwardPropagations: a.core.DownwardPropagations - b.core.DownwardPropagations,
		EntryPointScans:      a.core.EntryPointScans - b.core.EntryPointScans,
		Rule4PrimeWeakened:   a.core.Rule4PrimeWeakened - b.core.Rule4PrimeWeakened,
		FastPathHits:         a.core.FastPathHits - b.core.FastPathHits,
		BatchedLocks:         a.core.BatchedLocks - b.core.BatchedLocks,
	}
	ls := a.lock.Sub(b.lock)
	r.set("core.requests_per_txn", per(cs.Requests))
	r.set("core.upward_locks_per_txn", per(cs.UpwardLocks))
	r.set("core.downward_propagations_per_txn", per(cs.DownwardPropagations))
	r.set("core.entry_point_scans_per_txn", per(cs.EntryPointScans))
	r.set("core.rule4prime_weakened_per_txn", per(cs.Rule4PrimeWeakened))
	r.set("core.fast_path_hit_ratio", ratio(cs.FastPathHits, cs.FastPathHits+ls.Requests))
	r.set("core.batched_locks_per_txn", per(cs.BatchedLocks))

	r.set("lock.requests_per_txn", per(ls.Requests))
	r.set("lock.regrant_ratio", ratio(ls.Regrants, ls.Requests))
	r.set("lock.conflicts_per_txn", per(ls.Conflicts))
	r.set("lock.waits_per_txn", per(ls.Waits))
	r.set("lock.deadlocks_per_txn", per(ls.Deadlocks))
	r.set("lock.detector_runs_per_deadlock", ratio(ls.DetectorRuns, ls.Deadlocks))
	r.set("lock.batch_fallback_ratio", ratio(ls.BatchFallbacks, ls.Batches))
	r.set("lock.max_table_size", float64(a.lock.MaxTableSize))

	r.set("store.scans_per_txn", per(a.scans-b.scans))

	r.set("runtime.allocs_per_txn", per(a.mallocs-b.mallocs))
	r.set("runtime.alloc_bytes_per_txn", per(a.allocB-b.allocB))
	r.set("runtime.gc_cycles_per_s", float64(a.numGC-b.numGC)/p.wall.Seconds())
}

// spanMetrics reports the client and query layers from the traced
// phase's spans, per traced transaction and per traced call.
func spanMetrics(r *report, w *spec, p *phase) {
	var tot [spanKinds]int64
	var n [spanKinds]int
	for _, wk := range p.workers {
		for _, s := range wk.tr.spans {
			tot[s.kind] += s.end - s.start
			n[s.kind]++
		}
	}
	usPer := func(k, per spanKind) float64 { return float64(tot[k]) / 1e3 / float64(max(n[per], 1)) }
	usPerTxn := func(k spanKind) float64 { return usPer(k, spanTxn) }
	usPerOp := func(k spanKind) float64 { return usPer(k, spanOp) }
	r.samples("spans", p.sum(func(w *worker) int { return len(w.tr.spans) }))
	pick := func(on bool, v float64) float64 {
		if on {
			return v
		}
		return 0
	}
	r.set("client.begin_us_per_txn", pick(w.remote, usPerTxn(spanBegin)))
	r.set("client.lock_us_per_txn", pick(w.remote, usPerTxn(spanOp)))
	r.set("client.commit_us_per_txn", pick(w.remote, usPerTxn(spanCommit)))
	local := !w.remote
	r.set("query.parse_us_per_op", pick(local, usPerOp(spanParse)))
	r.set("query.plan_us_per_op", pick(local, usPerOp(spanPlan)))
	r.set("query.exec_us_per_op", pick(local, usPerOp(spanExec)-usPerOp(spanPlan)))
	r.set("query.results_per_op", pick(local, float64(p.sum(func(w *worker) int { return w.rows }))/float64(max(p.ops(), 1))))
	if local {
		r.setInfo("client.begin_us_per_txn", usPerTxn(spanBegin))
		r.setInfo("client.lock_us_per_txn", usPerTxn(spanOp))
		r.setInfo("client.commit_us_per_txn", usPerTxn(spanCommit))
		r.notes = append(r.notes, "local-query has no client layer: its in-process begin/statement/commit split is printed as info client.*")
	}
}

// eventMetrics reports lock wait and victim durations from the traced
// phase's event sink, and the observers' cost per event.
func eventMetrics(r *report, e *env, p *phase) {
	e.sink.mu.Lock()
	waits, victims := sorted(e.sink.waits), sorted(e.sink.victims)
	e.sink.mu.Unlock()
	r.set("lock.wait_us_p50", quantileUs(waits, 0.50))
	r.set("lock.wait_us_p99", quantileUs(waits, 0.99))
	r.set("lock.victim_wait_us_p50", quantileUs(victims, 0.50))
	r.samples("lock_waits", len(waits))
	r.samples("lock_victims", len(victims))
	r.samples("lock_events", int(e.sink.events.Load()))
	if e.timed == nil {
		for _, name := range []string{"obs.events_per_txn", "obs.record_ns_per_event.collector", "obs.record_ns_per_event.health", "obs.record_ns_per_event.profile"} {
			r.set(name, 0)
		}
		return
	}
	r.set("obs.events_per_txn", p.perCommit(float64(e.timed["collector"].events.Load())))
	for _, name := range []string{"collector", "health", "profile"} {
		r.set("obs.record_ns_per_event."+name, e.timed[name].nsPerEvent())
	}
}

// planStatement repeats the analysis and planning that ExecStatement
// performs, so the traced run can time them on their own.
func planStatement(e *env, stmt *query.Statement) error {
	if stmt.Query == nil {
		return nil
	}
	cat := e.st.Catalog()
	an, err := query.Analyze(cat, stmt.Query, query.AnalyzeOptions{})
	if err != nil {
		return err
	}
	_, err = core.PlanQuery(cat, an.Spec, core.PlannerOptions{})
	return err
}

func sorted(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

// quantileUs is the nearest-rank quantile of sorted nanoseconds, in
// microseconds; 0 for no samples.
func quantileUs(sortedNs []int64, q float64) float64 {
	if len(sortedNs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sortedNs)))) - 1
	if i < 0 {
		i = 0
	}
	v := sortedNs[i]
	if v == math.MaxInt64 {
		return math.Inf(1)
	}
	return float64(v) / 1e3
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
