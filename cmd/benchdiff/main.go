// Command benchdiff tabulates the committed BENCH_PR*.json reports so the
// performance trajectory of the PR sequence is visible in one table:
//
//	benchdiff            # scan the current directory
//	benchdiff -dir path  # scan another checkout
//
// Every lockbench report shares a loose schema: a "benchmark" name, a
// "description", and either speedup-style rows (a "results" array whose rows
// carry a speedup/ratio column) or overhead-style rows (an "overhead" array
// with an "overhead_pct" column). benchdiff extracts the headline numbers
// from whichever family a file belongs to, without depending on the exact
// per-PR report structs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"colock/internal/metrics"
)

// headline is one summarized report file.
type headline struct {
	File      string
	Benchmark string
	Kind      string // "speedup" or "overhead"
	Min, Max  float64
	Rows      int
}

// ratioKeys are the column names recognized as a speedup-style metric, in
// lookup order.
var ratioKeys = []string{"speedup", "kit_over_bare_ratio", "local_over_net_ratio"}

// summarize parses one report file and extracts its headline numbers.
func summarize(path string) (headline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return headline{}, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return headline{}, fmt.Errorf("%s: %w", path, err)
	}
	h := headline{File: filepath.Base(path)}
	h.Benchmark, _ = doc["benchmark"].(string)
	scan := func(rowsKey string, cols []string) bool {
		rows, _ := doc[rowsKey].([]any)
		found := false
		for _, raw := range rows {
			row, _ := raw.(map[string]any)
			for _, col := range cols {
				v, isNum := row[col].(float64)
				if !isNum {
					continue
				}
				if !found || v < h.Min {
					h.Min = v
				}
				if !found || v > h.Max {
					h.Max = v
				}
				found = true
				h.Rows++
				break
			}
		}
		return found
	}
	switch {
	case scan("results", ratioKeys):
		h.Kind = "speedup"
	case scan("overhead", []string{"overhead_pct"}):
		h.Kind = "overhead"
	default:
		return headline{}, fmt.Errorf("%s: no speedup or overhead rows found", path)
	}
	return h, nil
}

// prNumber is the PR number in a BENCH_PR<n>.json file name.
func prNumber(path string) int {
	n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_PR"), ".json"))
	return n
}

// tabulate renders the summarized reports in PR order, which is the
// chronological order of the sequence.
func tabulate(dir string) (*metrics.Table, error) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no BENCH_PR*.json files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool { return prNumber(files[i]) < prNumber(files[j]) })
	tab := metrics.NewTable("Benchmark trajectory across the PR sequence",
		"report", "benchmark", "rows", "headline")
	for _, f := range files {
		h, err := summarize(f)
		if err != nil {
			return nil, err
		}
		var head string
		switch h.Kind {
		case "speedup":
			head = fmt.Sprintf("speedup %.2fx..%.2fx", h.Min, h.Max)
		case "overhead":
			head = fmt.Sprintf("overhead %.1f%%..%.1f%%", h.Min, h.Max)
		}
		tab.Addf(h.File, h.Benchmark, h.Rows, head)
	}
	return tab, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	dir := flag.String("dir", ".", "directory holding the BENCH_PR*.json reports")
	flag.Parse()
	tab, err := tabulate(*dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tab.String())
}
