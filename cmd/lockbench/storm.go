package main

// Storm benchmark: goodput under hot-key write contention, with and without
// the contention survival kit. Both sides run the identical workload — N
// goroutines each committing a fixed number of transactions that X-lock a
// 90%-hot key through the full protocol stack under wait-die — and differ
// only in how they react to an abort:
//
//   - bare:  abort and immediately begin again (the classic spin-restart
//     loop a naive client writes);
//   - kit:   txn.Manager.RunWithRetry with capped-exponential backoff plus
//     shed-mode admission control on Begin.
//
// On a saturated machine the bare side burns its cycles on begin/die churn
// — every spin steals CPU from the lock holder, stretching the very hold it
// is spinning on — while the kit parks losers in timers so the holder runs
// at full speed. Goodput is commits per second of wall time; the acceptance
// bar for this PR is kit/bare >= 1.5 at 32 goroutines.
//
// A second phase checks convergence under deterministic fault injection: a
// fixed-seed resilience.Chaos forces synthetic victims, timeouts and grant
// delays while every worker retries unboundedly; the run must commit every
// single transaction. Emits machine-readable BENCH_PR6.json.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/obs"
	"colock/internal/resilience"
	"colock/internal/store"
	"colock/internal/txn"
)

// stormHotPermille is the per-mille probability that a transaction writes
// the hot key (the rest spread over the cold leaves): the 90%-hot-key
// workload from the PR acceptance bar.
const stormHotPermille = 900

// stormStack is one side's fresh protocol stack over the paper database.
type stormStack struct {
	mgr *lock.Manager
	tm  *txn.Manager
}

func newStormStack() *stormStack {
	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{Policy: lock.PolicyWaitDie})
	p := core.NewProtocol(mgr, st, nm, core.Options{})
	return &stormStack{mgr: mgr, tm: txn.NewManager(p, st)}
}

// stormPaths returns the hot leaf and the cold leaf set of the workload.
func stormPaths() (store.Path, []store.Path) {
	hot := store.P("cells", "c1", "robots", "r1", "trajectory")
	cold := []store.Path{
		store.P("cells", "c1", "robots", "r2", "trajectory"),
		store.P("effectors", "e1", "tool"),
		store.P("effectors", "e2", "tool"),
		store.P("effectors", "e3", "tool"),
	}
	return hot, cold
}

// stormPick is a tiny deterministic per-worker LCG so both sides see the
// identical hot/cold request sequence for a given worker index.
type stormPick struct{ state uint64 }

func (p *stormPick) next() uint64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	return p.state >> 33
}

// stormSpin is a small fixed CPU burn standing in for the object update
// itself while the X lock is held.
func stormSpin() uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < 400; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	return h
}

var stormSink atomic.Uint64

// stormBody is the transaction body shared by both sides: a read statement,
// a scheduling point (client think time between statements — this is what
// makes transactions actually overlap), the X lock on the target, another
// think-time point while the lock is held, then the update burn. The yields
// model a client that doesn't run its whole transaction in one unbroken
// slice; they are what turns the hot key into a real storm.
func stormBody(tx *txn.Txn, read, target store.Path) error {
	if err := tx.LockPath(nil, read, lock.S); err != nil {
		return err
	}
	runtime.Gosched()
	if err := tx.LockPath(nil, target, lock.X); err != nil {
		return err
	}
	runtime.Gosched()
	stormSink.Add(stormSpin())
	return nil
}

// stormDrive runs workers goroutines over their deterministic request
// streams, one do call per draw (do reports whether the transaction
// committed), until dur elapses — or, when dur is zero, until each worker
// has made txns draws. It returns the commits and the elapsed wall time,
// including the drain of in-flight transactions after the deadline.
func stormDrive(workers int, dur time.Duration, txns int, do func(read, target store.Path) bool) (uint64, time.Duration) {
	hot, cold := stormPaths()
	var commits atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := stormPick{state: uint64(w + 1)}
			for n := 0; !stop.Load() && (dur > 0 || n < txns); n++ {
				r := pick.next()
				target := hot
				if r%1000 >= stormHotPermille {
					target = cold[r%uint64(len(cold))]
				}
				if do(cold[(r>>20)%uint64(len(cold))], target) {
					commits.Add(1)
				}
			}
		}(w)
	}
	if dur > 0 {
		time.Sleep(dur)
		stop.Store(true)
	}
	wg.Wait()
	return commits.Load(), time.Since(start)
}

// runStormBare runs the spin-restart side for roughly dur: every abort
// restarts the transaction immediately. Returns commits, total attempts
// and elapsed wall time.
func runStormBare(s *stormStack, workers int, dur time.Duration) (uint64, uint64, time.Duration) {
	var attempts atomic.Uint64
	commits, elapsed := stormDrive(workers, dur, 0, func(read, target store.Path) bool {
		for {
			attempts.Add(1)
			tx := s.tm.Begin()
			if err := stormBody(tx, read, target); err != nil {
				tx.Abort()
				continue
			}
			if tx.Commit() == nil {
				return true
			}
		}
	})
	return commits, attempts.Load(), elapsed
}

// stormRetry runs one transaction through RunWithRetry with unbounded
// attempts and capped-exponential backoff, reporting attempts to rc.
func stormRetry(s *stormStack, rc *obs.RetryCollector, backoff resilience.CappedExponential, read, target store.Path) bool {
	return s.tm.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
		return stormBody(tx, read, target)
	}, txn.WithMaxAttempts(0), txn.WithBackoff(backoff), txn.WithRetryObserver(rc)) == nil
}

// runStormKit runs the survival-kit side for roughly dur: identical
// per-worker request streams, but each transaction goes through
// RunWithRetry with capped-exponential backoff, and the manager sheds
// Begins beyond a waiter depth of twice the core count. Returns committed
// transactions, the retry collector, and elapsed wall time.
func runStormKit(s *stormStack, workers int, dur time.Duration) (uint64, *obs.RetryCollector, time.Duration) {
	s.mgr.ConfigureAdmission(lock.AdmissionConfig{
		MaxWaiters: 2 * runtime.GOMAXPROCS(0),
		MaxDelay:   2 * time.Millisecond,
		Mode:       lock.AdmitShed,
	})
	defer s.mgr.ConfigureAdmission(lock.AdmissionConfig{})
	rc := obs.NewRetryCollector()
	backoff := resilience.CappedExponential{Base: 100 * time.Microsecond, Cap: 2 * time.Millisecond}
	commits, elapsed := stormDrive(workers, dur, 0, func(read, target store.Path) bool {
		return stormRetry(s, rc, backoff, read, target)
	})
	return commits, rc, elapsed
}

// stormResult is one worker-count row of BENCH_PR6.json.
type stormResult struct {
	Goroutines            int     `json:"goroutines"`
	BareCommits           uint64  `json:"bare_commits"`
	KitCommits            uint64  `json:"kit_commits"`
	BareGoodput           float64 `json:"bare_goodput_commits_per_sec"`
	KitGoodput            float64 `json:"kit_goodput_commits_per_sec"`
	Ratio                 float64 `json:"kit_over_bare_ratio"`
	BareAttemptsPerCommit float64 `json:"bare_attempts_per_commit"`
	KitAttemptsPerCommit  float64 `json:"kit_attempts_per_commit"`
	KitSheds              uint64  `json:"kit_sheds"`
	KitAdmitDelays        uint64  `json:"kit_admit_delays"`
}

// stormChaosResult records the fault-injection convergence phase.
type stormChaosResult struct {
	Seed             int64   `json:"seed"`
	VictimRate       float64 `json:"victim_rate"`
	TimeoutRate      float64 `json:"timeout_rate"`
	DelayRate        float64 `json:"delay_rate"`
	Workers          int     `json:"workers"`
	TxnsPerWorker    int     `json:"txns_per_worker"`
	Commits          uint64  `json:"commits"`
	Failures         uint64  `json:"failures"`
	InjectedVictims  uint64  `json:"injected_victims"`
	InjectedTimeouts uint64  `json:"injected_timeouts"`
	InjectedDelays   uint64  `json:"injected_delays"`
	AttemptsPerTxn   float64 `json:"attempts_per_txn"`
	Converged        bool    `json:"converged"`
}

// stormBenchReport is the BENCH_PR6.json document.
type stormBenchReport struct {
	Benchmark   string           `json:"benchmark"`
	Description string           `json:"description"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	HotFraction float64          `json:"hot_fraction"`
	Policy      string           `json:"policy"`
	Results     []stormResult    `json:"results"`
	Chaos       stormChaosResult `json:"chaos"`
}

// runStormChaos is the convergence phase: a fixed-seed Chaos injector on a
// fresh stack, unbounded retries, and every transaction must commit.
func runStormChaos(workers, txns int) stormChaosResult {
	cfg := resilience.ChaosConfig{
		Seed:        42,
		VictimRate:  0.10,
		TimeoutRate: 0.05,
		DelayRate:   0.05,
		Delay:       200 * time.Microsecond,
	}
	s := newStormStack()
	chaos := resilience.NewChaos(cfg)
	s.mgr.SetInjector(chaos)
	defer s.mgr.SetInjector(nil)
	rc := obs.NewRetryCollector()
	backoff := resilience.CappedExponential{Base: 50 * time.Microsecond, Cap: time.Millisecond}
	commits, _ := stormDrive(workers, 0, txns, func(read, target store.Path) bool {
		return stormRetry(s, rc, backoff, read, target)
	})
	cs := chaos.Stats()
	snap := rc.Attempts()
	res := stormChaosResult{
		Seed:             cfg.Seed,
		VictimRate:       cfg.VictimRate,
		TimeoutRate:      cfg.TimeoutRate,
		DelayRate:        cfg.DelayRate,
		Workers:          workers,
		TxnsPerWorker:    txns,
		Commits:          snap.Commits,
		Failures:         uint64(workers*txns) - commits,
		InjectedVictims:  cs.Victims,
		InjectedTimeouts: cs.Timeouts,
		InjectedDelays:   cs.Delays,
		AttemptsPerTxn:   snap.Mean(),
	}
	res.Converged = res.Failures == 0 && res.Commits == uint64(workers*txns)
	return res
}

// runStormBench runs the duration-bound goodput comparison at each worker
// count (bare and kit back-to-back on fresh stacks, after a small warmup)
// plus the work-bound chaos convergence phase. Storm keeps its own
// duration-bound goodput loop instead of the paired fixed-work timer: bare
// spin-restart under livelock has no bounded time for a fixed amount of work.
func runStormBench(sc scale) (report, error) {
	rep := &stormBenchReport{
		Benchmark: "stormbench",
		Description: "hot-key write-storm goodput: bare abort-and-spin restart vs RunWithRetry " +
			"with capped-exponential backoff plus shed-mode admission control, wait-die, " +
			"90% of transactions X-locking one hot leaf of the paper database",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		HotFraction: float64(stormHotPermille) / 1000,
		Policy:      "waitdie",
	}
	for _, w := range sc.workers {
		// Warmup both sides briefly to settle the allocator and scheduler.
		runStormBare(newStormStack(), w, sc.dur/10)
		runStormKit(newStormStack(), w, sc.dur/10)

		bareCommits, bareAttempts, bareDur := runStormBare(newStormStack(), w, sc.dur)
		kitStack := newStormStack()
		kitCommits, rc, kitDur := runStormKit(kitStack, w, sc.dur)

		kitStats := kitStack.mgr.Stats()
		bareGood := float64(bareCommits) / bareDur.Seconds()
		kitGood := float64(kitCommits) / kitDur.Seconds()
		bareAtt := 0.0
		if bareCommits > 0 {
			bareAtt = float64(bareAttempts) / float64(bareCommits)
		}
		rep.Results = append(rep.Results, stormResult{
			Goroutines:            w,
			BareCommits:           bareCommits,
			KitCommits:            kitCommits,
			BareGoodput:           bareGood,
			KitGoodput:            kitGood,
			Ratio:                 kitGood / bareGood,
			BareAttemptsPerCommit: bareAtt,
			KitAttemptsPerCommit:  rc.Attempts().Mean(),
			KitSheds:              kitStats.Sheds,
			KitAdmitDelays:        kitStats.AdmitDelays,
		})
	}
	if sc.quick {
		rep.Chaos = runStormChaos(4, 10)
	} else {
		rep.Chaos = runStormChaos(8, 25)
	}
	return rep, nil
}

func (rep *stormBenchReport) print() {
	tab := metrics.NewTable(
		fmt.Sprintf("Write-storm goodput, %0.f%% hot key (GOMAXPROCS=%d, wait-die)",
			rep.HotFraction*100, rep.GOMAXPROCS),
		"goroutines", "bare commits/s", "kit commits/s", "ratio", "bare att/commit", "kit att/commit", "sheds")
	for _, r := range rep.Results {
		tab.Addf(r.Goroutines,
			fmt.Sprintf("%.0f", r.BareGoodput),
			fmt.Sprintf("%.0f", r.KitGoodput),
			fmt.Sprintf("%.2fx", r.Ratio),
			fmt.Sprintf("%.1f", r.BareAttemptsPerCommit),
			fmt.Sprintf("%.1f", r.KitAttemptsPerCommit),
			r.KitSheds)
	}
	fmt.Println(tab.String())
	c := rep.Chaos
	status := "CONVERGED"
	if !c.Converged {
		status = "DID NOT CONVERGE"
	}
	fmt.Printf("chaos(seed=%d victim=%.2f timeout=%.2f delay=%.2f): %d/%d commits, %d failures, "+
		"%.1f attempts/txn, injected %d victims %d timeouts %d delays — %s\n",
		c.Seed, c.VictimRate, c.TimeoutRate, c.DelayRate,
		c.Commits, c.Workers*c.TxnsPerWorker, c.Failures, c.AttemptsPerTxn,
		c.InjectedVictims, c.InjectedTimeouts, c.InjectedDelays, status)
}
