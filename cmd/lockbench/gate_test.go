package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var benchFile = flag.String("benchfile", "",
	"path to a lockbench -bench JSON report to validate (used by `make bench-smoke`)")

// violations collects the bounds a report breaks.
type violations []string

func (v *violations) addf(format string, args ...any) { *v = append(*v, fmt.Sprintf(format, args...)) }

// gateFor decodes a report of type R and runs its bounds.
func gateFor[R any](check func(*R) violations) func([]byte) (violations, error) {
	return func(data []byte) (violations, error) {
		var rep R
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, err
		}
		return check(&rep), nil
	}
}

// gates holds each scenario's acceptance bounds, keyed by the report's
// "benchmark" field. Quick (smoke) reports hold the never-a-slowdown bars;
// the committed full reports document the headline results.
var gates = map[string]func([]byte) (violations, error){
	// hot: the fast path is never a slowdown (the committed full run
	// documents ≥2x) and its cache and batch layers were live.
	"hotbench": gateFor(func(r *hotBenchReport) (v violations) {
		if len(r.Results) == 0 {
			v.addf("no result rows")
		}
		for _, row := range r.Results {
			if row.Speedup < 1.0 {
				v.addf("%d goroutines: speedup %.2fx < 1.0x — fast path is a slowdown", row.Goroutines, row.Speedup)
			}
		}
		if r.FastPathHits == 0 || r.BatchCalls == 0 {
			v.addf("fast path not live: hits=%d batches=%d", r.FastPathHits, r.BatchCalls)
		}
		return v
	}),
	// storm: the survival kit is never a slowdown (the full run documents
	// ≥1.5x at 32 goroutines) and the fixed-seed chaos phase converged.
	"stormbench": gateFor(func(r *stormBenchReport) (v violations) {
		if len(r.Results) == 0 {
			v.addf("no result rows")
		}
		for _, row := range r.Results {
			if row.Ratio < 1.0 {
				v.addf("%d goroutines: kit/bare ratio %.2fx < 1.0x — the survival kit is a slowdown", row.Goroutines, row.Ratio)
			}
		}
		if !r.Chaos.Converged {
			v.addf("chaos phase did not converge: %+v", r.Chaos)
		}
		return v
	}),
	// grant: the hot-root rows — the scenario the summaries target — are
	// never a slowdown, the blocked path stays at ≤1 alloc/op, and the
	// deferred detector resolves. The convoy rows are informational (see
	// DESIGN.md §15); the convoy win is the allocation-free blocked path.
	"grantbench": gateFor(func(r *grantBenchReport) (v violations) {
		hotRows := 0
		for _, row := range r.Results {
			if row.Scenario != "hot_root_is" {
				continue
			}
			hotRows++
			if row.Speedup < 1.0 {
				v.addf("%s @%d goroutines: speedup %.2fx < 1.0x — summary grant path is a slowdown",
					row.Scenario, row.Goroutines, row.Speedup)
			}
		}
		if hotRows == 0 {
			v.addf("report has no hot_root_is rows")
		}
		if r.BlockedAllocsPerOp > 1.0 {
			v.addf("blocked path allocs/op = %.2f, want <= 1.0", r.BlockedAllocsPerOp)
		}
		if r.SummaryFastChecks == 0 {
			v.addf("summary fast path not live: checks=%d", r.SummaryFastChecks)
		}
		if !r.DeadlockResolved || r.DetectorRuns == 0 {
			v.addf("deferred detector not live: resolved=%v runs=%d", r.DeadlockResolved, r.DetectorRuns)
		}
		return v
	}),
	// net: the wire always costs more than in-process; full reports also
	// hold ≥50k acquires/s at 32 connections (quick runs use smaller
	// connection counts and slices).
	"netbench": gateFor(func(r *netBenchReport) (v violations) {
		if len(r.Results) == 0 {
			v.addf("no result rows")
		}
		for _, row := range r.Results {
			if row.NetAcquiresPerSec <= 0 || row.LocalAcquiresPerSec <= 0 || row.LocalOverNetRatio <= 1.0 {
				v.addf("degenerate row: %+v", row)
			}
		}
		if r.Quick {
			return v
		}
		saw32 := false
		for _, row := range r.Results {
			if row.Connections != 32 {
				continue
			}
			saw32 = true
			if row.NetAcquiresPerSec < 50_000 {
				v.addf("32 connections: %.0f acquires/s < 50k loopback goodput bar", row.NetAcquiresPerSec)
			}
		}
		if !saw32 {
			v.addf("full report has no 32-connection row")
		}
		return v
	}),
	// observers: every observer is measured and live; full reports hold
	// every row to ≤5% overhead at 1-in-64 sampling.
	"observersbench": gateFor(func(r *observersBenchReport) (v violations) {
		seen := map[string]bool{}
		for _, row := range r.Overhead {
			seen[row.Observer] = true
			if !r.Quick && row.OverheadPct > 5.0 {
				v.addf("%s @%d goroutines: overhead %.2f%% exceeds the 5%% bar", row.Observer, row.Goroutines, row.OverheadPct)
			}
		}
		for _, o := range []string{"collector", "recorder", "health", "journal"} {
			if !seen[o] {
				v.addf("no %s rows", o)
			}
		}
		if r.SampledCalls == 0 || r.JournalRecords == 0 {
			v.addf("observers not live: sampled=%d journal records=%d", r.SampledCalls, r.JournalRecords)
		}
		return v
	}),
}

// gate dispatches a report to the bounds of its "benchmark" field.
func gate(data []byte) (violations, error) {
	var head struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, err
	}
	check, ok := gates[head.Benchmark]
	if !ok {
		return nil, fmt.Errorf("no gate for benchmark %q", head.Benchmark)
	}
	return check(data)
}

// TestExternalBenchFile validates a report produced outside the test
// process — `make bench-smoke` runs `lockbench -bench <name> -quick` into a
// temp file and hands it in here. Skipped when no -benchfile is given.
func TestExternalBenchFile(t *testing.T) {
	if *benchFile == "" {
		t.Skip("no -benchfile given")
	}
	data, err := os.ReadFile(*benchFile)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gate(data)
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	for _, msg := range v {
		t.Error(msg)
	}
}

func passingHot() *hotBenchReport {
	return &hotBenchReport{Benchmark: "hotbench", Results: []hotResult{{Goroutines: 1, Speedup: 2}},
		FastPathHits: 1, BatchCalls: 1}
}

func passingStorm() *stormBenchReport {
	return &stormBenchReport{Benchmark: "stormbench", Results: []stormResult{{Goroutines: 4, Ratio: 1.5}},
		Chaos: stormChaosResult{Converged: true}}
}

func passingGrant() *grantBenchReport {
	return &grantBenchReport{Benchmark: "grantbench",
		Results:            []grantResult{{Scenario: "hot_root_is", Goroutines: 1, Speedup: 1.3}, {Scenario: "convoy_x", Goroutines: 1, Speedup: 0.5}},
		BlockedAllocsPerOp: 0, SummaryFastChecks: 1, DetectorRuns: 1, DeadlockResolved: true}
}

func passingNet() *netBenchReport {
	return &netBenchReport{Benchmark: "netbench", Results: []netResult{
		{Connections: 1, NetAcquiresPerSec: 30_000, LocalAcquiresPerSec: 400_000, LocalOverNetRatio: 13},
		{Connections: 32, NetAcquiresPerSec: 80_000, LocalAcquiresPerSec: 900_000, LocalOverNetRatio: 11},
	}}
}

func passingObservers() *observersBenchReport {
	r := &observersBenchReport{Benchmark: "observersbench", SampledCalls: 1, SpanCount: 2, JournalRecords: 1}
	for _, o := range []string{"collector", "recorder", "health", "journal"} {
		r.Overhead = append(r.Overhead, observerRow{Observer: o, Goroutines: 1, OverheadPct: 4.9})
	}
	return r
}

// Every gate must pass a report within its bounds and fail a report doctored
// to break exactly one of them.
func TestGateBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  any
		pass bool
	}{
		{"hot within bounds", passingHot(), true},
		{"hot speedup 0.9", func() any { r := passingHot(); r.Results[0].Speedup = 0.9; return r }(), false},
		{"hot no fast-path hits", func() any { r := passingHot(); r.FastPathHits = 0; return r }(), false},
		{"storm within bounds", passingStorm(), true},
		{"storm ratio 0.9", func() any { r := passingStorm(); r.Results[0].Ratio = 0.9; return r }(), false},
		{"storm chaos not converged", func() any { r := passingStorm(); r.Chaos.Converged = false; return r }(), false},
		{"grant within bounds", passingGrant(), true},
		{"grant hot-root 0.9", func() any { r := passingGrant(); r.Results[0].Speedup = 0.9; return r }(), false},
		{"grant 1.5 blocked allocs/op", func() any { r := passingGrant(); r.BlockedAllocsPerOp = 1.5; return r }(), false},
		{"grant deadlock unresolved", func() any { r := passingGrant(); r.DeadlockResolved = false; return r }(), false},
		{"net within bounds", passingNet(), true},
		{"net full report at 40k @32", func() any { r := passingNet(); r.Results[1].NetAcquiresPerSec = 40_000; return r }(), false},
		{"net quick report at 40k @32", func() any {
			r := passingNet()
			r.Quick, r.Results[1].NetAcquiresPerSec = true, 40_000
			return r
		}(), true},
		{"observers within bounds", passingObservers(), true},
		{"observers row at 6%", func() any { r := passingObservers(); r.Overhead[2].OverheadPct = 6; return r }(), false},
		{"observers missing journal", func() any { r := passingObservers(); r.Overhead = r.Overhead[:3]; return r }(), false},
	} {
		data, err := json.Marshal(tc.rep)
		if err != nil {
			t.Fatal(err)
		}
		v, err := gate(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pass := len(v) == 0; pass != tc.pass {
			t.Errorf("%s: gate passed=%v, want %v (violations %q)", tc.name, pass, tc.pass, v)
		}
	}
	if _, err := gate([]byte(`{"benchmark":"shardbench"}`)); err == nil {
		t.Error("gate accepted a benchmark it has no bounds for")
	}
}

// The committed full reports of the hot, storm, grant and net scenarios
// must still pass their gates: the report schemas and the bounds are
// unchanged since those reports were measured.
func TestGateAcceptsCommittedReports(t *testing.T) {
	for _, f := range []string{"BENCH_PR4.json", "BENCH_PR6.json", "BENCH_PR9.json", "BENCH_PR10.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", f))
		if err != nil {
			t.Logf("%s not visible from the test dir: %v", f, err)
			continue
		}
		v, err := gate(data)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		}
		for _, msg := range v {
			t.Errorf("%s: %s", f, msg)
		}
	}
}
