// Command colockbench is colock's end-to-end benchmark. One run executes
// one closed-loop workload (remote-read, local-query or remote-hotspot)
// with two clients for a fixed time, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload remote-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer metrics: counters from an untraced phase, spans
// and lock-event distributions from a traced phase, and the layer ladder.
// README.md describes the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// clients is the number of client goroutines (one connection each on the
// remote workloads), each with one transaction in flight.
const clients = 2

// gitCommit is the commit the binary was built from; run.sh sets it when
// the checkout is a git repository.
var gitCommit = "unknown"

// setupRepeats is how many times an untraced run builds and measures its
// environment; setup_s is the median build time.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload *spec
	seed     int64
	dur      time.Duration
	traced   bool
	spansDir string
	ladder   ladderConfig
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colockbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: remote-read, local-query or remote-hotspot")
	seed := fs.Int64("seed", 1, "seed for the database and the transaction scripts")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and the ladder")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "colockbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		workload: w,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		spansDir: *spans,
		ladder:   defaultLadder,
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "colockbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.correct() {
		return 1
	}
	return 0
}

// execute runs one configured invocation and returns its report.
func execute(cfg config) (*report, error) {
	if cfg.traced {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// metricDef names one reported metric. The set must match BENCHMARK.json:
// e2e metrics are the end_to_end list, the others the per_layer list.
type metricDef struct {
	name   string
	unit   string
	better string
	e2e    bool
}

var metricDefs = []metricDef{
	{"txn_per_s", "1/s", "higher", true},
	{"txn_p50_us", "us", "lower", true},
	{"txn_p90_us", "us", "lower", true},
	{"op_p50_us", "us", "lower", true},
	{"op_p90_us", "us", "lower", true},
	{"cpu_us_per_txn", "us/txn", "lower", true},
	{"max_rss_mb", "MiB", "lower", true},
	{"setup_s", "s", "lower", true},

	{"txn_p99_us", "us", "lower", false},
	{"op_p99_us", "us", "lower", false},
	{"abort_ratio", "ratio", "lower", false},
	{"failed_ratio", "ratio", "lower", false},
	{"trace.overhead_ratio", "ratio", "higher", false},

	{"client.begin_us_per_txn", "us/txn", "lower", false},
	{"client.lock_us_per_txn", "us/txn", "lower", false},
	{"client.commit_us_per_txn", "us/txn", "lower", false},

	{"server.frames_read_per_txn", "count/txn", "lower", false},
	{"server.frames_written_per_txn", "count/txn", "lower", false},
	{"server.error_replies_per_txn", "count/txn", "lower", false},
	{"server.busy_refusals", "count", "lower", false},

	{"proc.syscr_per_op", "count/op", "lower", false},
	{"proc.syscw_per_op", "count/op", "lower", false},

	{"wire.codec_ns_per_op", "ns/op", "lower", false},

	{"ladder.lock", "us/txn", "lower", false},
	{"ladder.core", "us/txn", "lower", false},
	{"ladder.txn", "us/txn", "lower", false},
	{"ladder.server", "us/txn", "lower", false},
	{"ladder.client", "us/txn", "lower", false},

	{"query.parse_us_per_op", "us/op", "lower", false},
	{"query.plan_us_per_op", "us/op", "lower", false},
	{"query.exec_us_per_op", "us/op", "lower", false},
	{"query.results_per_op", "count/op", "higher", false},

	{"core.requests_per_txn", "count/txn", "lower", false},
	{"core.upward_locks_per_txn", "count/txn", "lower", false},
	{"core.downward_propagations_per_txn", "count/txn", "lower", false},
	{"core.entry_point_scans_per_txn", "count/txn", "lower", false},
	{"core.rule4prime_weakened_per_txn", "count/txn", "lower", false},
	{"core.fast_path_hit_ratio", "ratio", "higher", false},
	{"core.batched_locks_per_txn", "count/txn", "higher", false},

	{"lock.requests_per_txn", "count/txn", "lower", false},
	{"lock.regrant_ratio", "ratio", "lower", false},
	{"lock.conflicts_per_txn", "count/txn", "lower", false},
	{"lock.waits_per_txn", "count/txn", "lower", false},
	{"lock.wait_us_p50", "us", "lower", false},
	{"lock.wait_us_p99", "us", "lower", false},
	{"lock.deadlocks_per_txn", "count/txn", "lower", false},
	{"lock.victim_wait_us_p50", "us", "lower", false},
	{"lock.detector_runs_per_deadlock", "count/deadlock", "lower", false},
	{"lock.batch_fallback_ratio", "ratio", "lower", false},
	{"lock.max_table_size", "count", "lower", false},

	{"store.scans_per_txn", "count/txn", "lower", false},

	{"obs.events_per_txn", "count/txn", "lower", false},
	{"obs.record_ns_per_event.collector", "ns/event", "lower", false},
	{"obs.record_ns_per_event.health", "ns/event", "lower", false},
	{"obs.record_ns_per_event.profile", "ns/event", "lower", false},

	{"runtime.allocs_per_txn", "count/txn", "lower", false},
	{"runtime.alloc_bytes_per_txn", "B/txn", "lower", false},
	{"runtime.gc_cycles_per_s", "1/s", "lower", false},
}

func metricDefByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one reported value, in the shape of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	name   string
	ok     bool
	detail string
}

// report collects one run's output. metrics holds the contract set (the
// end-to-end metrics untraced, the per-layer metrics traced); info holds
// the other phase's figures, printed for reading but kept out of the
// result line.
type report struct {
	meta      map[string]any
	metrics   map[string]metric
	info      map[string]metric
	notes     []string
	checks    []check
	attempted int
	failed    int
}

func newReport(cfg config) *report {
	return &report{
		meta: map[string]any{
			"workload":       cfg.workload.name,
			"seed":           cfg.seed,
			"seconds":        cfg.dur.Seconds(),
			"trace":          cfg.traced,
			"clients":        clients,
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"nproc":          runtime.NumCPU(),
			"go_version":     runtime.Version(),
			"git_commit":     gitCommit,
			"traffic":        cfg.workload.traffic(),
			"sample_counts":  map[string]int{},
			"setup_repeats":  setupRepeats,
			"closed_loop":    true,
			"in_flight_each": 1,
		},
		metrics: map[string]metric{},
		info:    map[string]metric{},
	}
}

// set records a contract metric; the name must be in metricDefs.
func (r *report) set(name string, v float64) {
	r.metrics[name] = r.value(name, v)
}

// setInfo records a figure printed for reading only.
func (r *report) setInfo(name string, v float64) {
	r.info[name] = r.value(name, v)
}

func (r *report) value(name string, v float64) metric {
	d, ok := metricDefByName(name)
	if !ok {
		panic("colockbench: unregistered metric " + name)
	}
	return metric{Value: v, Unit: d.unit}
}

func (r *report) samples(name string, n int) {
	r.meta["sample_counts"].(map[string]int)[name] = n
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) checkErr(name string, err error) {
	if err != nil {
		r.check(name, false, "%v", err)
		return
	}
	r.check(name, true, "ok")
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// finite reports whether every contract value is a finite number.
func (r *report) finite() error {
	var bad []string
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("non-finite metrics: %v", bad)
	}
	return nil
}

func (r *report) print(w io.Writer) {
	r.checkErr("metrics are finite", r.finite())
	meta, _ := json.Marshal(r.meta) // a map of plain values always marshals
	fmt.Fprintf(w, "meta %s\n", meta)
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-4s %s: %s\n", status, c.name, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	printMetrics := func(prefix string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %-36s %16.4f %s\n", prefix, n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics("info  ", r.info)
	printMetrics("metric", r.metrics)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		// Only a non-finite value can fail to marshal; the check above
		// already marked the run incorrect.
		fmt.Fprintf(w, "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n", max(r.attempted, 1), r.failed)
		return
	}
	fmt.Fprintf(w, "%s\n", out)
}
