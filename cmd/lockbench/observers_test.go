package main

import (
	"sync"
	"testing"
	"time"
)

var (
	observersOnce sync.Once
	observersRep  *observersBenchReport
	observersErr  error
)

// quickObservers runs the quick observers scenario once and shares the
// report between the tests that check its rows.
func quickObservers(t *testing.T) *observersBenchReport {
	t.Helper()
	observersOnce.Do(func() {
		out, err := runObserversBench(scale{quick: true, workers: []int{1, 2}, dur: 40 * time.Millisecond})
		if err == nil {
			observersRep = out.(*observersBenchReport)
		}
		observersErr = err
	})
	if observersErr != nil {
		t.Fatal(observersErr)
	}
	return observersRep
}

// observerRows returns the report's rows for one observer, and fails the
// test unless there is one per goroutine count, in order, against the
// named baseline with positive throughput on both sides.
func observerRows(t *testing.T, rep *observersBenchReport, observer, baseline string) []observerRow {
	t.Helper()
	var rows []observerRow
	for _, r := range rep.Overhead {
		if r.Observer == observer {
			rows = append(rows, r)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("%s rows = %+v, want one per goroutine count 1 and 2", observer, rows)
	}
	for i, r := range rows {
		if r.Goroutines != i+1 || r.Baseline != baseline {
			t.Errorf("%s row %d = %+v, want @%d against %s", observer, i, r, i+1, baseline)
		}
		if r.BaseOpsPerSec <= 0 || r.ObservedOpsPerSec <= 0 {
			t.Errorf("non-positive throughput: %+v", r)
		}
	}
	return rows
}

// A quick observers run must produce one row per observer and goroutine
// count, and write a report that parses back with the same rows.
func TestObserversBenchQuick(t *testing.T) {
	rep := quickObservers(t)
	if rep.Benchmark != "observersbench" || rep.SampleShift != observerSampleShift || !rep.Quick {
		t.Errorf("report header = %q shift %d quick %v", rep.Benchmark, rep.SampleShift, rep.Quick)
	}
	want := []string{"collector", "recorder", "health", "journal"}
	if len(rep.Overhead) != len(want)*2 {
		t.Fatalf("overhead rows = %+v, want %d observers x 2 goroutine counts", rep.Overhead, len(want))
	}
	for i, r := range rep.Overhead {
		if r.Observer != want[i%len(want)] || r.Goroutines != 1+i/len(want) {
			t.Errorf("row %d = %s @%d, want %s @%d", i, r.Observer, r.Goroutines, want[i%len(want)], 1+i/len(want))
		}
	}
	observerRows(t, rep, "journal", "collector")
	if rep.JournalRecords == 0 {
		t.Error("journal persisted no records")
	}
	var parsed observersBenchReport
	roundTrip(t, rep, &parsed)
	if parsed.Benchmark != "observersbench" || len(parsed.Overhead) != len(rep.Overhead) {
		t.Errorf("file report = %+v", parsed)
	}
	rep.print()
}

// The collector rows (the former obsbench) measure an obs.Collector sink
// against a bare manager, and survive the JSON report.
func TestWriteObsBench(t *testing.T) {
	rep := quickObservers(t)
	rows := observerRows(t, rep, "collector", "bare")
	var parsed observersBenchReport
	roundTrip(t, rep, &parsed)
	got := 0
	for _, r := range parsed.Overhead {
		if r.Observer == "collector" {
			if r != rows[got] {
				t.Errorf("collector row %d read back as %+v, wrote %+v", got, r, rows[got])
			}
			got++
		}
	}
	if got != len(rows) {
		t.Errorf("report file has %d collector rows, want %d", got, len(rows))
	}
}

// The recorder rows (the former tracebench) must show the traced side
// demonstrably sampled calls into the flight recorder.
func TestTraceBenchQuick(t *testing.T) {
	rep := quickObservers(t)
	observerRows(t, rep, "recorder", "bare")
	if rep.SampledCalls == 0 || rep.SpanCount == 0 {
		t.Errorf("traced side traced nothing: sampled=%d spans=%d", rep.SampledCalls, rep.SpanCount)
	}
	// At shift 6 roughly 1 in 64 calls is sampled; each sampled LockPath
	// produces at least a root and an acquire span.
	if rep.SpanCount < rep.SampledCalls {
		t.Errorf("span count %d < sampled calls %d", rep.SpanCount, rep.SampledCalls)
	}
}

// The health rows (the former healthbench overhead phase) measure a
// health.Monitor sink against a bare manager. The SLO storm phase is
// covered by internal/health's storm and state-machine tests.
func TestWriteHealthBench(t *testing.T) {
	rep := quickObservers(t)
	observerRows(t, rep, "health", "bare")
}
