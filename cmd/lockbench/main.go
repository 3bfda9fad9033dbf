// Command lockbench runs the quantitative experiments E1-E13 that turn the
// paper's qualitative evaluation (§4.6) into measurements (see DESIGN.md §5
// for the claim → experiment index), and the in-process bench scenarios
// that each price one layer against a disabled or frozen baseline:
//
//	lockbench                          # run the full suite (EXPERIMENTS.md scale)
//	lockbench -quick                   # small-scale smoke run
//	lockbench -e E3,E5                 # run selected experiments (E1..E13)
//	lockbench -bench hot -out f.json   # run one scenario, write its JSON report
//	lockbench -bench net -quick -out f.json
//
// The scenarios (see scenarios below) are hot (fast-path speedup,
// BENCH_PR4.json), storm (contention-survival goodput, BENCH_PR6.json),
// grant (constant-time grant path, BENCH_PR9.json), net (wire loopback cost,
// BENCH_PR10.json) and observers (collector, recorder, health monitor and
// journal overhead, BENCH_PR12.json). -out has no default, so a run never
// overwrites a committed report by accident. The table-driven
// TestExternalBenchFile test holds any report to its scenario's bounds;
// `make bench-smoke` runs it on quick hot, storm, grant and net reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"colock/internal/experiments"
	"colock/internal/metrics"
)

// experimentOrder lists the experiments in presentation order.
var experimentOrder = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}

// experimentRunners maps experiment ids to their runners (quick selects the
// small-scale parameterization).
func experimentRunners() map[string]func(quick bool) *metrics.Table {
	return map[string]func(quick bool) *metrics.Table{
		"E1": func(q bool) *metrics.Table {
			if q {
				return experiments.E1Fig7Concurrency(20)
			}
			return experiments.E1Fig7Concurrency(200)
		},
		"E2": func(q bool) *metrics.Table {
			if q {
				return experiments.E2Granularity(8, 50, 200*time.Microsecond)
			}
			return experiments.E2Granularity(16, 200, 500*time.Microsecond)
		},
		"E3": func(q bool) *metrics.Table {
			if q {
				return experiments.E3SharedXLock([]int{2, 8, 32})
			}
			return experiments.E3SharedXLock([]int{2, 8, 32, 128})
		},
		"E4": func(q bool) *metrics.Table {
			if q {
				return experiments.E4FromTheSide(10)
			}
			return experiments.E4FromTheSide(50)
		},
		"E5": func(q bool) *metrics.Table {
			if q {
				return experiments.E5Authorization([]int{4, 16}, 200*time.Microsecond)
			}
			return experiments.E5Authorization([]int{4, 16, 64}, 500*time.Microsecond)
		},
		"E6": func(q bool) *metrics.Table {
			if q {
				return experiments.E6Escalation(200, []float64{0.05, 0.25, 0.5, 1.0})
			}
			return experiments.E6Escalation(500, []float64{0.02, 0.1, 0.25, 0.5, 0.75, 1.0})
		},
		"E7": func(q bool) *metrics.Table {
			if q {
				return experiments.E7LongTransactions(8, 30*time.Millisecond)
			}
			return experiments.E7LongTransactions(16, 100*time.Millisecond)
		},
		"E8": func(q bool) *metrics.Table {
			if q {
				return experiments.E8DisjointOverhead(16, 4)
			}
			return experiments.E8DisjointOverhead(64, 6)
		},
		"E9": func(q bool) *metrics.Table {
			if q {
				return experiments.E9BenefitSweep([]int{1, 2, 3, 4}, 30*time.Millisecond)
			}
			return experiments.E9BenefitSweep([]int{1, 2, 3, 4, 5}, 60*time.Millisecond)
		},
		"E10": func(q bool) *metrics.Table {
			if q {
				return experiments.E10DeEscalation(8, 30*time.Millisecond)
			}
			return experiments.E10DeEscalation(16, 100*time.Millisecond)
		},
		"E11": func(q bool) *metrics.Table {
			if q {
				return experiments.E11BLUCoalescing(16)
			}
			return experiments.E11BLUCoalescing(64)
		},
		"E12": func(q bool) *metrics.Table {
			if q {
				return experiments.E12RecursiveClosure([]int{2, 8, 32})
			}
			return experiments.E12RecursiveClosure([]int{2, 8, 32, 128})
		},
		"E13": func(q bool) *metrics.Table {
			if q {
				return experiments.E13DeadlockPolicy(4, 15)
			}
			return experiments.E13DeadlockPolicy(8, 40)
		},
	}
}

// scale sizes one scenario run: the goroutine (or connection) counts it
// sweeps and the measurement budget per count.
type scale struct {
	quick   bool
	workers []int
	dur     time.Duration
}

// report is a scenario's JSON document; print renders it for the console.
type report interface{ print() }

// scenario is one registered bench: its full and -quick sizes and its
// runner.
type scenario struct {
	full, quick scale
	run         func(scale) (report, error)
}

// scenarios is the -bench registry.
var scenarios = map[string]scenario{
	"hot": {
		full:  scale{false, []int{1, 2, 4, 8, 16, 32}, 2 * time.Second},
		quick: scale{true, []int{1, 4}, 300 * time.Millisecond},
		run:   runHotBench,
	},
	"storm": {
		full:  scale{false, []int{8, 32}, 2 * time.Second},
		quick: scale{true, []int{4}, 300 * time.Millisecond},
		run:   runStormBench,
	},
	"grant": {
		full:  scale{false, []int{1, 4, 16}, 2 * time.Second},
		quick: scale{true, []int{1, 4}, 300 * time.Millisecond},
		run:   runGrantBench,
	},
	"net": {
		full:  scale{false, []int{1, 8, 32}, 2 * time.Second},
		quick: scale{true, []int{1, 4}, 400 * time.Millisecond},
		run:   runNetBench,
	},
	"observers": {
		full:  scale{false, []int{1, 4, 16}, 2 * time.Second},
		quick: scale{true, []int{1, 4}, 300 * time.Millisecond},
		run:   runObserversBench,
	},
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeWorkers runs a fixed amount of work — iters body calls on each of
// workers goroutines — and returns the wall time it took. Fixed work under a
// wall clock (instead of fixed time under an op counter) is what makes the
// best-slice estimator sound: interference only ever adds time, so the
// fastest of many repetitions is the least contaminated measurement.
func timeWorkers(workers, iters int, body func(id int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				body(id)
			}
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// pair is the outcome of one paired-ABBA comparison of sides a and b.
type pair struct {
	ratio      float64 // median within-pair time ratio a/b
	aOps, bOps float64 // each side's best-slice throughput, ops/s
}

// pairABBA compares two bodies on fixed work. It calibrates the per-slice
// iteration count on side a so a slice takes about slice, warms both sides,
// then times pairs slice pairs back-to-back in alternating order (a,b then
// b,a), so machine-load drift hits both sides of a pair equally and divides
// out of the pair's time ratio. The median ratio drops the pairs a
// descheduling burst poisoned. opsPerIter converts iterations into the
// reported operations.
func pairABBA(workers, opsPerIter, pairs int, slice time.Duration, a, b func(id int)) pair {
	// The bench heap is tiny: let GC fire at the explicit slice boundaries
	// instead of mid-measurement, and collect after every slice so one
	// slice's allocation debt is never billed to the next.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	iters := 1
	for {
		d := timeWorkers(workers, iters, a)
		if d >= slice/8 {
			iters = max(1, int(float64(iters)*float64(slice)/float64(d)))
			break
		}
		iters *= 2
	}
	timed := func(body func(id int)) time.Duration {
		defer runtime.GC()
		return timeWorkers(workers, iters, body)
	}
	timed(a) // warmup
	timed(b)
	ratios := make([]float64, 0, pairs)
	bestA, bestB := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < pairs; i++ {
		var da, db time.Duration
		if i%2 == 0 {
			da, db = timed(a), timed(b)
		} else {
			db, da = timed(b), timed(a)
		}
		ratios = append(ratios, float64(da)/float64(db))
		bestA, bestB = min(bestA, da), min(bestB, db)
	}
	sort.Float64s(ratios)
	ops := float64(workers * iters * opsPerIter)
	return pair{ratio: ratios[len(ratios)/2], aOps: ops / bestA.Seconds(), bOps: ops / bestB.Seconds()}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lockbench: ")
	quick := flag.Bool("quick", false, "run a small-scale suite or scenario")
	sel := flag.String("e", "", "comma-separated experiment ids (E1..E13); empty = all")
	bench := flag.String("bench", "", "run one bench scenario (hot, storm, grant, net, observers) instead of the experiments")
	out := flag.String("out", "", "output path for the -bench JSON report (required with -bench)")
	flag.Parse()

	if *bench != "" {
		sc, ok := scenarios[*bench]
		if !ok {
			log.Fatalf("unknown scenario %q (have hot, storm, grant, net, observers)", *bench)
		}
		if *out == "" {
			log.Fatal("-bench needs -out")
		}
		size := sc.full
		if *quick {
			size = sc.quick
		}
		rep, err := sc.run(size)
		if err != nil {
			log.Fatalf("%s: %v", *bench, err)
		}
		if err := writeJSON(*out, rep); err != nil {
			log.Fatalf("%s: %v", *bench, err)
		}
		rep.print()
		fmt.Printf("report written to %s\n", *out)
		return
	}

	runners := experimentRunners()
	var ids []string
	if *sel == "" {
		ids = experimentOrder
	} else {
		for _, id := range strings.Split(*sel, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				log.Fatalf("unknown experiment %q (have E1..E13)", id)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tab := runners[id](*quick)
		fmt.Println(tab.String())
		fmt.Printf("(%s finished in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
