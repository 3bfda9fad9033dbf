package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"colock/client"
	"colock/internal/core"
	"colock/internal/health"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/query"
	"colock/internal/resilience"
	"colock/internal/server"
	"colock/internal/store"
	"colock/internal/trace"
	"colock/internal/txn"
	"colock/internal/workload"
)

// warmTxns is how many transactions each client runs during set-up, so
// that caches, pools and connections are warm before timing starts.
const warmTxns = 150

// historyTxns caps the transactions the traced local-query phase records
// for the serializability check, whose cost is quadratic in accesses.
const historyTxns = 1500

// observerSampleShift is colockd's 1-in-64 sampling for lock events and
// protocol spans.
const observerSampleShift = 6

// readOnlyLibrary denies modify rights on the effectors relation only: a
// read-only part library, so rule 4′ weakens X propagation into it to S.
type readOnlyLibrary struct{}

func (readOnlyLibrary) CanModify(_ lock.TxnID, relation string) bool { return relation != "effectors" }

// env is one built system under test: the database, the lock stack, and
// for remote workloads a server and one connected client per worker.
type env struct {
	spec    *spec
	in      *inputs
	st      *store.Store
	mgr     *lock.Manager
	proto   *core.Protocol
	tm      *txn.Manager
	srv     *server.Server
	clients []*client.Client
	exec    *query.Executor
	next    atomic.Uint64
	commits int // counted by the benchmark, warm-up included

	// Traced environments only.
	traced bool
	sink   *eventSink
	timed  map[string]*timedSink
	hist   *txn.History
}

// newEnv builds and warms one environment. A traced environment samples
// every lock operation into the benchmark's own sink and times each
// observer's Record.
func newEnv(s *spec, in *inputs, traced bool) (*env, error) {
	st := workload.Generate(database)
	core.CollectStatistics(st)
	nm := core.NewNamer(st.Catalog(), false)
	lopts := lock.Options{}
	if s.remote && !traced {
		lopts.EventSampleShift = observerSampleShift
	}
	mgr := lock.NewManager(lopts)
	e := &env{spec: s, in: in, st: st, mgr: mgr, traced: traced}
	if traced {
		e.sink = &eventSink{}
		mgr.AttachSink(e.sink)
	}
	copts := core.Options{}
	if s.rule4prime {
		copts.Rule4Prime = true
		copts.Authorizer = readOnlyLibrary{}
	}
	var mon *health.Monitor
	if s.remote {
		copts.Tracer, mon = e.attachObservers(nm)
	}
	e.proto = core.NewProtocol(mgr, st, nm, copts)
	if mon != nil {
		e.proto.OnFastPathHit(mon.RecordFastPathHit)
	}
	e.tm = txn.NewManager(e.proto, st)
	if s.remote {
		e.srv = server.New(e.tm, server.Options{})
		if err := e.srv.Serve("127.0.0.1:0"); err != nil {
			mgr.Close()
			return nil, err
		}
		for i := 0; i < clients; i++ {
			c, err := client.Dial(e.srv.Addr(), client.Options{})
			if err != nil {
				e.shutdown()
				return nil, err
			}
			e.clients = append(e.clients, c)
		}
	} else {
		e.exec = query.NewExecutor(e.tm, core.PlannerOptions{})
	}
	warm := e.drive(time.Time{}, warmTxns, nil)
	for _, w := range warm {
		if w.failed > 0 && !s.mayFail {
			e.shutdown()
			return nil, fmt.Errorf("warm-up: %d failed transactions: %v", w.failed, w.lastErr)
		}
	}
	return e, nil
}

// attachObservers installs the observer stack colockd runs: collector,
// contention profile and health monitor as lock-event sinks, and a
// protocol span recorder, all at 1-in-64 sampling. Traced environments
// wrap each sink in a timer.
func (e *env) attachObservers(nm *core.Namer) (*trace.Recorder, *health.Monitor) {
	kindOf := core.UnitKindOf(nm)
	col := obs.NewCollector(obs.Options{KindLabels: core.UnitKindLabels, KindOf: kindOf})
	prof := trace.NewProfile()
	mon := health.NewMonitor(health.Options{
		Window: time.Second,
		Retain: 60,
		TopK:   32,
		SLO: health.SLO{
			MaxAbortRate:   0.05,
			MaxWaitP99:     250 * time.Millisecond,
			MaxWaiterDepth: 64,
		},
		WaiterDepth: e.mgr.WaitingTxns,
		GrantPath:   e.mgr.Stats,
	})
	sinks := []struct {
		name string
		sink lock.EventSink
	}{{"collector", col}, {"profile", prof}, {"health", mon}}
	if e.traced {
		e.timed = map[string]*timedSink{}
	}
	for _, s := range sinks {
		if e.traced {
			t := &timedSink{inner: s.sink}
			e.timed[s.name] = t
			e.mgr.AttachSink(t)
			continue
		}
		e.mgr.AttachSink(s.sink)
	}
	rec := trace.NewRecorder(trace.Options{
		SampleShift: observerSampleShift,
		ShardOf:     e.mgr.ShardOf,
		KindOf: func(r lock.Resource) string {
			if k := kindOf(r); k >= 0 && k < len(core.UnitKindLabels) {
				return core.UnitKindLabels[k]
			}
			return "other"
		},
	})
	return rec, mon
}

// worker is one closed-loop client: it runs one transaction at a time and
// records what it saw.
type worker struct {
	id     int
	env    *env
	client *client.Client
	tr     *spanBuf // nil when untraced

	epoch      time.Time // the phase's start; sample ends count from it
	txns       []sample  // Begin to commit acknowledged, retries included
	calls      []sample  // one user call each
	started    int
	commits    int
	attempts   int
	failed     int
	ops        int
	rows       int
	robotStmts int
	badRows    int
	errs       int
	badErrs    int
	lastErr    error

	// commitHook runs after each commit; the traced local-query phase uses
	// it to stop history recording.
	commitHook func()
}

// drive runs every worker until the deadline, or for n transactions each
// when the deadline is zero, and returns the workers once all stopped.
func (e *env) drive(deadline time.Time, n int, setup func(*worker)) []*worker {
	ws := make([]*worker, clients)
	var wg sync.WaitGroup
	epoch := time.Now()
	for i := range ws {
		w := &worker{id: i, env: e, epoch: epoch}
		if e.clients != nil {
			w.client = e.clients[i]
		}
		if setup != nil {
			setup(w)
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(deadline, n)
		}()
	}
	wg.Wait()
	for _, w := range ws {
		e.commits += w.commits
	}
	return ws
}

func (w *worker) loop(deadline time.Time, n int) {
	pool := uint64(w.env.in.len())
	for k := 0; ; k++ {
		if deadline.IsZero() {
			if k >= n {
				return
			}
		} else if !time.Now().Before(deadline) {
			return
		}
		i := int((w.env.next.Add(1) - 1) % pool)
		var txnID uint64
		if w.tr != nil {
			w.tr.full = w.tr.txns >= spanTxnCap
			w.tr.txns++
			txnID = w.tr.newID()
			w.tr.txn = txnID
		}
		w.started++
		t0 := time.Now()
		attempts, err := w.env.spec.txn(w, i)
		t1 := time.Now()
		w.attempts += attempts
		if w.tr != nil {
			w.tr.add(spanTxn, txnID, 0, t0, t1)
		}
		if err != nil {
			// A failed transaction misses every latency limit.
			w.txns = append(w.txns, sample{end: int64(t1.Sub(w.epoch)), dur: math.MaxInt64})
			w.failed++
			w.noteErr(err)
			continue
		}
		w.txns = append(w.txns, sample{end: int64(t1.Sub(w.epoch)), dur: int64(t1.Sub(t0))})
		w.commits++
		if w.commitHook != nil {
			w.commitHook()
		}
	}
}

// noteErr checks that an error the system returned is a retryable lock
// error: the workloads cause no other kind.
func (w *worker) noteErr(err error) {
	w.errs++
	w.lastErr = err
	if _, retry := resilience.Classify(err); !retry {
		w.badErrs++
	}
}

// op records one user call's latency and, when tracing, its span; id is
// a span id reserved earlier with spanID, or 0 to take a fresh one.
func (w *worker) op(id uint64, t0, t1 time.Time) {
	w.calls = append(w.calls, sample{end: int64(t1.Sub(w.epoch)), dur: int64(t1.Sub(t0))})
	w.ops++
	if w.tr != nil {
		if id == 0 {
			id = w.tr.newID()
		}
		w.tr.add(spanOp, id, w.tr.txn, t0, t1)
	}
}

func (w *worker) span(kind spanKind, t0, t1 time.Time) {
	if w.tr != nil {
		w.tr.add(kind, w.tr.newID(), w.tr.txn, t0, t1)
	}
}

func (w *worker) spanID() uint64 {
	if w.tr == nil {
		return 0
	}
	return w.tr.newID()
}

// counters is a snapshot of every public counter the benchmark reads.
type counters struct {
	at      time.Time
	lock    lock.Stats
	core    core.ProtocolStats
	scans   uint64
	server  map[string]float64
	syscr   uint64
	syscw   uint64
	cpu     time.Duration
	mallocs uint64
	allocB  uint64
	numGC   uint32
}

func (e *env) snapshot() (counters, error) {
	c := counters{
		lock:  e.mgr.Stats(),
		core:  e.proto.Stats(),
		scans: e.st.ScanCount(),
	}
	if e.srv != nil {
		var buf bytes.Buffer
		e.srv.WriteMetrics(&buf)
		c.server = parseProm(buf.String())
	}
	var err error
	if c.syscr, c.syscw, err = procIO(); err != nil {
		return c, err
	}
	if c.cpu, err = cpuTime(); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB, c.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	c.at = time.Now()
	return c, nil
}

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// procIO reads the process's read and write syscall counts.
func procIO() (syscr, syscw uint64, err error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if perr != nil {
			continue
		}
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw, sc.Err()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// sample is one timed call: when it ended, in nanoseconds since the
// phase's start, and how long it took.
type sample struct{ end, dur int64 }

// phase is one measured interval, cut into slices of about a second. The
// end-to-end figures are medians over slices, so a short burst of load
// from outside the benchmark moves one slice, not the result.
type phase struct {
	before, after counters
	workers       []*worker
	wall          time.Duration
	marks         []int64         // slice boundaries, ns since the phase's start
	cpu           []time.Duration // process CPU time at each boundary
	figs          []sliceFig
}

// measure runs the closed loop for d and snapshots counters around it,
// sampling process CPU time at every slice boundary.
func (e *env) measure(d time.Duration, setup func(*worker)) (*phase, error) {
	n := max(1, int(d/time.Second))
	slice := d / time.Duration(n)
	before, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	p := &phase{before: before, marks: []int64{0}, cpu: []time.Duration{before.cpu}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k < n; k++ {
			t := time.NewTimer(time.Until(before.at.Add(time.Duration(k) * slice)))
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
			c, err := cpuTime()
			if err != nil {
				return // the final snapshot reports the error
			}
			p.marks = append(p.marks, int64(time.Since(before.at)))
			p.cpu = append(p.cpu, c)
		}
	}()
	p.workers = e.drive(before.at.Add(d), 0, func(w *worker) {
		w.epoch = before.at
		if setup != nil {
			setup(w)
		}
	})
	close(stop)
	<-done
	if p.after, err = e.snapshot(); err != nil {
		return nil, err
	}
	p.wall = p.after.at.Sub(before.at)
	p.marks = append(p.marks, int64(p.wall))
	p.cpu = append(p.cpu, p.after.cpu)
	p.figs = p.figures()
	return p, nil
}

func (p *phase) sum(f func(*worker) int) int {
	n := 0
	for _, w := range p.workers {
		n += f(w)
	}
	return n
}

func (p *phase) commits() int  { return p.sum(func(w *worker) int { return w.commits }) }
func (p *phase) started() int  { return p.sum(func(w *worker) int { return w.started }) }
func (p *phase) failed() int   { return p.sum(func(w *worker) int { return w.failed }) }
func (p *phase) attempts() int { return p.sum(func(w *worker) int { return w.attempts }) }
func (p *phase) ops() int      { return p.sum(func(w *worker) int { return w.ops }) }

// sliceFig holds one slice's end-to-end figures.
type sliceFig struct {
	txnPerS, txnP50, txnP90, txnP99, opP50, opP90, opP99, cpuPerTxn float64
	txns, ops                                                       int
	txnsBeyondP99, opsBeyondP99                                     int
}

// figures computes the figures of every slice and then drops the
// samples, so that a run's memory does not grow with its length.
func (p *phase) figures() []sliceFig {
	split := func(get func(*worker) []sample) [][]int64 {
		out := make([][]int64, len(p.marks)-1)
		for _, w := range p.workers {
			for _, s := range get(w) {
				k := sort.Search(len(p.marks), func(i int) bool { return p.marks[i] > s.end }) - 1
				k = min(max(k, 0), len(out)-1)
				out[k] = append(out[k], s.dur)
			}
		}
		for _, v := range out {
			sorted(v)
		}
		return out
	}
	txns := split(func(w *worker) []sample { return w.txns })
	ops := split(func(w *worker) []sample { return w.calls })
	for _, w := range p.workers {
		w.txns, w.calls = nil, nil
	}
	figs := make([]sliceFig, len(txns))
	for k, v := range txns {
		commits := 0
		for _, d := range v {
			if d != math.MaxInt64 {
				commits++
			}
		}
		figs[k] = sliceFig{
			txnPerS:       float64(commits) / (float64(p.marks[k+1]-p.marks[k]) / 1e9),
			txnP50:        quantileUs(v, 0.50),
			txnP90:        quantileUs(v, 0.90),
			txnP99:        quantileUs(v, 0.99),
			opP50:         quantileUs(ops[k], 0.50),
			opP90:         quantileUs(ops[k], 0.90),
			opP99:         quantileUs(ops[k], 0.99),
			cpuPerTxn:     float64(p.cpu[k+1]-p.cpu[k]) / 1e3 / float64(max(commits, 1)),
			txns:          len(v),
			ops:           len(ops[k]),
			txnsBeyondP99: beyond(len(v), 0.99),
			opsBeyondP99:  beyond(len(ops[k]), 0.99),
		}
	}
	return figs
}

// beyond is how many of n samples lie above their q quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// sliceStats are the end-to-end figures, each the median over slices,
// with sample counts summed over slices, except that the counts beyond
// p99 are the smallest of any slice.
type sliceStats struct {
	sliceFig
	slices       int
	sliceTxnPerS []float64
}

// stats pools the slices of every phase and takes the medians.
func stats(phases ...*phase) sliceStats {
	var st sliceStats
	var t50, t90, t99, o50, o90, o99, cpu []float64
	for _, p := range phases {
		for _, f := range p.figs {
			st.sliceTxnPerS = append(st.sliceTxnPerS, f.txnPerS)
			t50, t90, t99 = append(t50, f.txnP50), append(t90, f.txnP90), append(t99, f.txnP99)
			o50, o90, o99 = append(o50, f.opP50), append(o90, f.opP90), append(o99, f.opP99)
			cpu = append(cpu, f.cpuPerTxn)
			st.txns += f.txns
			st.ops += f.ops
			if st.slices == 0 || f.txnsBeyondP99 < st.txnsBeyondP99 {
				st.txnsBeyondP99 = f.txnsBeyondP99
			}
			if st.slices == 0 || f.opsBeyondP99 < st.opsBeyondP99 {
				st.opsBeyondP99 = f.opsBeyondP99
			}
			st.slices++
		}
	}
	st.txnPerS, st.txnP50, st.txnP90, st.txnP99 = median(st.sliceTxnPerS), median(t50), median(t90), median(t99)
	st.opP50, st.opP90, st.opP99, st.cpuPerTxn = median(o50), median(o90), median(o99), median(cpu)
	return st
}

// perCommit divides a count by the phase's commits.
func (p *phase) perCommit(v float64) float64 {
	c := p.commits()
	if c == 0 {
		return math.Inf(1)
	}
	return v / float64(c)
}

// checkPhase adds the checks that hold for every measured phase.
func (e *env) checkPhase(r *report, p *phase, label string) {
	errs, bad, badRows := p.sum(func(w *worker) int { return w.errs }), p.sum(func(w *worker) int { return w.badErrs }), p.sum(func(w *worker) int { return w.badRows })
	var last error
	for _, w := range p.workers {
		if w.lastErr != nil {
			last = w.lastErr
		}
	}
	r.check(label+": every error is a retryable lock error", bad == 0, "%d errors, %d not retryable (last: %v)", errs, bad, last)
	if !e.spec.mayFail {
		r.check(label+": no transaction failed", p.failed() == 0, "%d of %d failed", p.failed(), p.started())
	}
	if !e.spec.remote { // the local workload runs bound statements
		robot := p.sum(func(w *worker) int { return w.robotStmts })
		r.check(label+": every bound robot statement affects or returns one row", badRows == 0 && robot > 0, "%d of %d did not", badRows, robot)
	}
	r.check(label+": transactions committed", p.commits() > 0, "%d commits", p.commits())
}

// close ends every session, stops the server, and checks that nothing
// was left behind: no session, no active transaction, no lock, and the
// benchmark's commit count equals the transaction manager's.
func (e *env) close(r *report, label string) {
	for _, c := range e.clients {
		_ = c.Close() // Close always returns nil
	}
	if e.srv != nil {
		deadline := time.Now().Add(5 * time.Second)
		for e.srv.SessionCount() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		r.check(label+": server sessions closed", e.srv.SessionCount() == 0, "%d sessions left", e.srv.SessionCount())
	}
	r.check(label+": no active transaction", e.tm.ActiveCount() == 0, "%d active", e.tm.ActiveCount())
	r.check(label+": lock table empty", e.mgr.LockCount() == 0, "%d locks held", e.mgr.LockCount())
	r.check(label+": commits match txn.Manager", uint64(e.commits) == e.tm.Commits(),
		"benchmark counted %d, manager %d", e.commits, e.tm.Commits())
	e.shutdown()
}

func (e *env) shutdown() {
	for _, c := range e.clients {
		_ = c.Close()
	}
	if e.srv != nil {
		_ = e.srv.Close() // Close always returns nil
	}
	e.mgr.Close()
}

// eventSink is the benchmark's own lock-event consumer in traced runs:
// every operation is sampled, so its wait and victim durations are
// complete.
type eventSink struct {
	events  atomic.Uint64
	mu      sync.Mutex
	waits   []int64
	victims []int64
}

func (s *eventSink) Record(e lock.Event) {
	s.events.Add(1)
	switch {
	case (e.Kind == "grant" || e.Kind == "convert") && e.Waited:
		s.mu.Lock()
		s.waits = append(s.waits, int64(e.Dur))
		s.mu.Unlock()
	case e.Kind == "victim":
		s.mu.Lock()
		s.victims = append(s.victims, int64(e.Dur))
		s.mu.Unlock()
	}
}

// timedSink times an observer's Record calls.
type timedSink struct {
	inner  lock.EventSink
	ns     atomic.Int64
	events atomic.Int64
}

func (t *timedSink) Record(e lock.Event) {
	t0 := time.Now()
	t.inner.Record(e)
	t.ns.Add(int64(time.Since(t0)))
	t.events.Add(1)
}

func (t *timedSink) nsPerEvent() float64 {
	n := t.events.Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(n)
}
