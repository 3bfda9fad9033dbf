package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// roundTrip writes rep through writeJSON and decodes the file into into,
// proving the report on disk is the report in memory.
func roundTrip(t *testing.T, rep report, into any) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("report file not JSON: %v", err)
	}
}

// A quick hotbench run must produce a well-formed report whose fast side
// demonstrably exercised the granted-mode cache and the batched manager
// path.
func TestHotBenchQuick(t *testing.T) {
	out, err := runHotBench(scale{quick: true, workers: []int{2}, dur: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.(*hotBenchReport)
	if rep.Benchmark != "hotbench" || rep.PathsPerTxn != hotPathsPerTxn {
		t.Errorf("report header = %q paths/txn %d", rep.Benchmark, rep.PathsPerTxn)
	}
	if len(rep.Results) != 1 || rep.Results[0].Goroutines != 2 {
		t.Fatalf("result rows = %+v, want one row for 2 goroutines", rep.Results)
	}
	row := rep.Results[0]
	if row.BaselineOpsPerSec <= 0 || row.FastOpsPerSec <= 0 || row.Speedup <= 0 {
		t.Errorf("degenerate row: %+v", row)
	}
	if rep.FastPathHits == 0 {
		t.Error("fast side recorded no granted-mode cache hits")
	}
	if rep.BatchCalls == 0 {
		t.Error("fast side recorded no batched manager rounds")
	}
	if rep.BaselineAllocsPerOp <= 0 {
		t.Errorf("baseline allocs/op = %v, want > 0", rep.BaselineAllocsPerOp)
	}
	if rep.FastAllocsPerOp >= rep.BaselineAllocsPerOp {
		t.Errorf("fast path allocates as much as the baseline: fast %.2f vs baseline %.2f",
			rep.FastAllocsPerOp, rep.BaselineAllocsPerOp)
	}
	var parsed hotBenchReport
	roundTrip(t, rep, &parsed)
	if parsed.Benchmark != "hotbench" || len(parsed.Results) != 1 {
		t.Errorf("file report = %+v", parsed)
	}
}
