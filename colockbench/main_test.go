package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests compare
// against the program.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, true})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better, false})
	}
	var wantE2E, wantLayer []metricDef
	for _, d := range metricDefs {
		if d.e2e {
			wantE2E = append(wantE2E, d)
		} else {
			wantLayer = append(wantLayer, d)
		}
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end in BENCHMARK.json\n got %v\nwant %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n got %v\nwant %v", layer, wantLayer)
	}
	for _, w := range b.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, the program runs %s", w.Name, workloadNames())
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.inputs(7), w.inputs(7), w.inputs(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		if a.len() != scriptPool {
			t.Errorf("%s: %d transactions, want %d", w.name, a.len(), scriptPool)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that the output checks pass and that every metric named in
// metricDefs is reported, finite, in its run.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w,
				seed:     3,
				dur:      time.Second,
				traced:   traced,
				spansDir: t.TempDir(),
				ladder:   ladderConfig{rounds: 4, batch: 4},
			}
			r, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, c := range r.checks {
				if !c.ok {
					t.Errorf("%s traced=%v: check %q failed: %s", w.name, traced, c.name, c.detail)
				}
			}
			if r.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w.name, traced, r.attempted)
			}
			for _, d := range metricDefs {
				m, ok := r.metrics[d.name]
				if d.e2e == traced {
					if ok {
						t.Errorf("%s traced=%v: reports %s, which belongs to the other run", w.name, traced, d.name)
					}
					continue
				}
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
					t.Errorf("%s traced=%v: %s = %v %s", w.name, traced, d.name, m.Value, m.Unit)
				}
			}
			if len(r.metrics) != countDefs(!traced) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.metrics), countDefs(!traced))
			}
		}
	}
}

func countDefs(e2e bool) int {
	n := 0
	for _, d := range metricDefs {
		if d.e2e == e2e {
			n++
		}
	}
	return n
}

// ladderTolerance is how far a rung may fall below the one beneath it.
// Two gaps are within the timing noise of a small shared machine: txn over
// core (Begin and Commit bookkeeping, a few percent) and client over
// server (the client package's own work, under a tenth).
const ladderTolerance = 0.15

func TestLadderRungsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("times five layers")
	}
	l, err := runLadder(5, ladderConfig{rounds: 20, batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ladderString(l))
	for i := 1; i < len(ladderRungs); i++ {
		lo, hi := ladderRungs[i-1], ladderRungs[i]
		if l[lo] > l[hi]*(1+ladderTolerance) {
			t.Errorf("ladder.%s = %.1f us/txn is above ladder.%s = %.1f us/txn", lo, l[lo], hi, l[hi])
		}
	}
	// The network rungs must sit well above the in-process ones: every
	// acquire is a round trip.
	if l["server"] < 2*l["txn"] {
		t.Errorf("ladder.server = %.1f us/txn is not above twice ladder.txn = %.1f", l["server"], l["txn"])
	}
}
