package main

import (
	"testing"
	"time"
)

// A quick netbench run must produce a well-formed report: a live server,
// real round trips, positive throughput on both sides and a sane latency
// distribution.
func TestNetBenchQuick(t *testing.T) {
	out, err := runNetBench(scale{quick: true, workers: []int{1, 2}, dur: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.(*netBenchReport)
	if rep.Benchmark != "netbench" || rep.LocksPerTxn != netLocksPerTxn || rep.PipelineDepth != netPipelineDepth {
		t.Errorf("report header = %q locks/txn %d depth %d", rep.Benchmark, rep.LocksPerTxn, rep.PipelineDepth)
	}
	if !rep.NoFollow || !rep.Quick {
		t.Errorf("report does not declare the quick NOFOLLOW workload: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("result rows = %+v, want rows for 1 and 2 connections", rep.Results)
	}
	for _, r := range rep.Results {
		if r.NetAcquiresPerSec <= 0 || r.LocalAcquiresPerSec <= 0 || r.LocalOverNetRatio <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
		if r.NetP50Micros <= 0 || r.NetP99Micros < r.NetP50Micros {
			t.Errorf("latency distribution inverted or empty: %+v", r)
		}
		// Crossing the wire must cost something: an in-process acquire has no
		// round trip, so a ratio at or below 1.0 means the harness measured
		// the wrong thing.
		if r.LocalOverNetRatio <= 1.0 {
			t.Errorf("connections=%d: local/net ratio %.2fx <= 1.0x — network side measured faster than in-process",
				r.Connections, r.LocalOverNetRatio)
		}
	}
	var parsed netBenchReport
	roundTrip(t, rep, &parsed)
	if parsed.Benchmark != "netbench" || len(parsed.Results) != 2 {
		t.Errorf("file report = %+v", parsed)
	}
}
