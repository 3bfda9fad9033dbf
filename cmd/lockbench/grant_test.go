package main

import (
	"testing"
	"time"
)

// A quick grantbench run must produce a well-formed report whose current
// side demonstrably exercised the summary fast path and whose deferred
// detector resolved a real cycle.
func TestGrantBenchQuick(t *testing.T) {
	out, err := runGrantBench(scale{quick: true, workers: []int{2}, dur: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.(*grantBenchReport)
	if rep.Benchmark != "grantbench" || rep.Residents != grantResidents {
		t.Errorf("report header = %q residents %d", rep.Benchmark, rep.Residents)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("result rows = %+v, want one hot_root_is and one convoy_x row", rep.Results)
	}
	for _, r := range rep.Results {
		if r.Goroutines != 2 || r.BaselineOpsPerSec <= 0 || r.CurrentOpsPerSec <= 0 || r.Speedup <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
	}
	if rep.SummaryFastChecks == 0 {
		t.Error("current side recorded no summary fast-path checks")
	}
	if !rep.DeadlockResolved {
		t.Error("deferred-detector probe did not resolve the AB-BA cycle")
	}
	if rep.DetectorRuns == 0 || rep.DeferredDetections == 0 {
		t.Errorf("detector not live: deferred=%d runs=%d", rep.DeferredDetections, rep.DetectorRuns)
	}
	if rep.BaselineBlockedAllocsPerOp <= 0 {
		t.Errorf("baseline blocked allocs/op = %v, want > 0", rep.BaselineBlockedAllocsPerOp)
	}
	if rep.BlockedAllocsPerOp >= rep.BaselineBlockedAllocsPerOp {
		t.Errorf("blocked path allocates as much as the baseline: current %.2f vs baseline %.2f",
			rep.BlockedAllocsPerOp, rep.BaselineBlockedAllocsPerOp)
	}
	var parsed grantBenchReport
	roundTrip(t, rep, &parsed)
	if parsed.Benchmark != "grantbench" || len(parsed.Results) != 2 {
		t.Errorf("file report = %+v", parsed)
	}
}
