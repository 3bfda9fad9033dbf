package main

import (
	"testing"
	"time"
)

// A quick stormbench run must produce a well-formed report: both sides made
// progress, the retry layer actually retried on the contended workload, and
// the fixed-seed chaos phase committed every transaction.
func TestStormBenchQuick(t *testing.T) {
	out, err := runStormBench(scale{quick: true, workers: []int{4}, dur: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.(*stormBenchReport)
	if rep.Benchmark != "stormbench" || rep.HotFraction != 0.9 || rep.Policy != "waitdie" {
		t.Errorf("report header = %q hot %.2f policy %q", rep.Benchmark, rep.HotFraction, rep.Policy)
	}
	if len(rep.Results) != 1 || rep.Results[0].Goroutines != 4 {
		t.Fatalf("result rows = %+v, want one row for 4 goroutines", rep.Results)
	}
	row := rep.Results[0]
	if row.BareCommits == 0 || row.KitCommits == 0 {
		t.Errorf("a side made no progress: %+v", row)
	}
	if row.BareGoodput <= 0 || row.KitGoodput <= 0 || row.Ratio <= 0 {
		t.Errorf("degenerate row: %+v", row)
	}
	if row.KitAttemptsPerCommit < 1 {
		t.Errorf("kit attempts/commit = %v, want >= 1", row.KitAttemptsPerCommit)
	}
	c := rep.Chaos
	if !c.Converged {
		t.Errorf("chaos phase did not converge: %+v", c)
	}
	if c.Commits != uint64(c.Workers*c.TxnsPerWorker) || c.Failures != 0 {
		t.Errorf("chaos commits = %d failures = %d, want %d and 0",
			c.Commits, c.Failures, c.Workers*c.TxnsPerWorker)
	}
	if c.InjectedVictims+c.InjectedTimeouts+c.InjectedDelays == 0 {
		t.Error("chaos phase injected nothing")
	}
	var parsed stormBenchReport
	roundTrip(t, rep, &parsed)
	if parsed.Benchmark != "stormbench" || !parsed.Chaos.Converged {
		t.Errorf("file report = %+v", parsed)
	}
}
