package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed BENCH_PR*.json reports at the repo root must all summarize:
// every file yields either a speedup or an overhead headline, and the
// grant-path report (this PR's artifact) appears with a speedup row.
func TestTabulateCommittedReports(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "BENCH_PR*.json"))
	if err != nil || len(files) == 0 {
		t.Skipf("no committed reports visible from the test dir: %v", err)
	}
	tab, err := tabulate(root)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if len(tab.Rows) != len(files) {
		t.Errorf("tabulated %d rows for %d report files:\n%s", len(tab.Rows), len(files), out)
	}
	if !strings.Contains(out, "BENCH_PR9.json") || !strings.Contains(out, "grantbench") {
		t.Errorf("trajectory table is missing the grant-path report:\n%s", out)
	}
}

// A report with neither a results nor an overhead array is rejected rather
// than silently summarized as empty.
func TestSummarizeRejectsUnknownShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_PRX.json")
	if err := os.WriteFile(path, []byte(`{"benchmark":"mystery"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(path); err == nil {
		t.Error("summarize accepted a report with no recognizable rows")
	}
}

// A lockbench observers report summarizes as an overhead headline over
// its observer × goroutines rows.
func TestSummarizeObserversReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_PR12.json")
	doc := `{"benchmark":"observersbench","overhead":[
		{"observer":"collector","baseline":"bare","goroutines":1,"overhead_pct":2.5},
		{"observer":"recorder","baseline":"bare","goroutines":1,"overhead_pct":-1.0},
		{"observer":"journal","baseline":"collector","goroutines":4,"overhead_pct":4.0}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != "overhead" || h.Benchmark != "observersbench" || h.Rows != 3 || h.Min != -1.0 || h.Max != 4.0 {
		t.Errorf("headline = %+v, want overhead over 3 rows, -1.0..4.0", h)
	}
}

// Reports tabulate in PR order, not file-name order: BENCH_PR10 follows
// BENCH_PR9.
func TestTabulateSortsByPRNumber(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"10", "2", "9"} {
		doc := `{"benchmark":"b` + n + `","results":[{"speedup":1.5}]}`
		if err := os.WriteFile(filepath.Join(dir, "BENCH_PR"+n+".json"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tabulate(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range tab.Rows {
		got = append(got, row[0])
	}
	if strings.Join(got, ",") != "BENCH_PR2.json,BENCH_PR9.json,BENCH_PR10.json" {
		t.Errorf("order = %v", got)
	}
}
