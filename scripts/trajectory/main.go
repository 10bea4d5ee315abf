// Command trajectory gates a short benchmark run on the committed trajectory.
// From the repository root it reads BENCHMARK.json, the BENCH_PR<n>.json with
// per-workload medians and a `benchmark/run.sh --json` result per workload in
// <results-dir>/<workload>.json. For msgs_per_tx and allocs_per_tx it prints
// the drift from the oldest report through the newest to this run, and fails
// when a result is missing or exceeds the newest report's median by more than its bound.
//
//	go run ./scripts/trajectory [results-dir (default out)]
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

type report struct {
	pr        int
	Workloads map[string]struct {
		Metrics map[string]struct{ Change struct{ Median float64 } }
	}
}

func main() {
	if err := run(".", append(os.Args[1:], "out")[0], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	return err
}

func run(root, results string, w io.Writer) error {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	paths, _ := filepath.Glob(filepath.Join(root, "BENCH_PR[0-9]*.json"))
	var reps []report
	for _, p := range paths {
		r := report{}
		fmt.Sscanf(filepath.Base(p), "BENCH_PR%d.json", &r.pr) // the pattern guarantees the digits
		if err := readJSON(p, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if len(r.Workloads) > 0 { // reports before PR 17 hold rows instead
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("no BENCH_PR<n>.json with per-workload medians in %s", root)
	}
	// By PR number, not by name: BENCH_PR5 sorts after BENCH_PR35.
	slices.SortFunc(reps, func(a, b report) int { return a.pr - b.pr })
	oldest, newest, failed := reps[0], reps[len(reps)-1], 0
	for _, wl := range spec.Workloads {
		var res struct {
			Metrics map[string]struct{ Value float64 }
		}
		if err := readJSON(filepath.Join(results, wl.Name+".json"), &res); err != nil {
			fmt.Fprintf(w, "%s: FAIL, no result: %v\n", wl.Name, err)
			failed++
			continue
		}
		for _, m := range spec.EndToEnd {
			if m.Unit != "count" {
				continue // a timed metric needs alternating pairs and -compare
			}
			now, ok := res.Metrics[m.Name]
			last := newest.Workloads[wl.Name].Metrics[m.Name].Change.Median
			delta, verdict := now.Value/last-1, "ok"
			if !ok || last == 0 || delta > m.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "%s %s %.2f (PR%d) → %.2f (PR%d) → %.2f now: %+.1f%% vs PR%d, bound %.0f%%, %s\n",
				wl.Name, m.Name, oldest.Workloads[wl.Name].Metrics[m.Name].Change.Median, oldest.pr,
				last, newest.pr, now.Value, 100*delta, newest.pr, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d check(s) failed", failed)
	}
	return nil
}
