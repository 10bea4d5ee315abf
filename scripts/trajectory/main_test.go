package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const spec = `{"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": [
	{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
	{"name": "msgs_per_tx", "unit": "count", "better": "lower", "bound": 0.08},
	{"name": "allocs_per_tx", "unit": "count", "better": "lower", "bound": 0.08}]}`

// oldShape is a report from before PR 17: rows and a summary, no workloads.
const oldShape = `{"name": "hotpath", "rows": [{"label": "memnet", "msgs_per_op": 1}], "summary": {"scaling_memnet": 0.9}}`

// reportJSON renders a report whose two workloads share one pair of medians.
func reportJSON(msgs, allocs float64) string {
	w := fmt.Sprintf(`{"metrics": {"msgs_per_tx": {"change": {"median": %g}}, "allocs_per_tx": {"change": {"median": %g}}}}`, msgs, allocs)
	return fmt.Sprintf(`{"workloads": {"w1": %s, "w2": %s}}`, w, w)
}

// resultJSON renders one workload's benchmark/run.sh --json document.
func resultJSON(msgs, allocs float64) string {
	return fmt.Sprintf(`{"correct": true, "metrics": {"setup_s": {"value": 9}, "msgs_per_tx": {"value": %g}, "allocs_per_tx": {"value": %g}}}`, msgs, allocs)
}

func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRun(t *testing.T) {
	// PR 17 and PR 35 have the current shape; PR 1 and PR 5 do not, and
	// BENCH_PR5 sorts after BENCH_PR35 by name. PR 9 is a current-shape
	// report that also sorts after PR 35 by name: were it taken as the
	// newest, w1's 12.5 would read +25 % and fail.
	reports := map[string]string{
		"BENCHMARK.json":  spec,
		"BENCH_PR1.json":  oldShape,
		"BENCH_PR5.json":  oldShape,
		"BENCH_PR9.json":  reportJSON(10, 80),
		"BENCH_PR17.json": reportJSON(9, 200),
		"BENCH_PR35.json": reportJSON(12, 100),
	}
	cases := []struct {
		name    string
		results map[string]string
		wantErr bool
		wantOut []string
	}{
		{
			name:    "within bound",
			results: map[string]string{"w1.json": resultJSON(12.5, 104), "w2.json": resultJSON(11, 90)},
			wantOut: []string{
				"w1 msgs_per_tx 10.00 (PR9) → 12.00 (PR35) → 12.50 now: +4.2% vs PR35, bound 8%, ok",
				"w2 allocs_per_tx 80.00 (PR9) → 100.00 (PR35) → 90.00 now: -10.0% vs PR35, bound 8%, ok",
			},
		},
		{
			name:    "planted +10% msgs_per_tx",
			results: map[string]string{"w1.json": resultJSON(13.2, 100), "w2.json": resultJSON(12, 100)},
			wantErr: true,
			wantOut: []string{"w1 msgs_per_tx 10.00 (PR9) → 12.00 (PR35) → 13.20 now: +10.0% vs PR35, bound 8%, FAIL"},
		},
		{
			name:    "planted +10% allocs_per_tx",
			results: map[string]string{"w1.json": resultJSON(12, 100), "w2.json": resultJSON(12, 110)},
			wantErr: true,
			wantOut: []string{"w2 allocs_per_tx 80.00 (PR9) → 100.00 (PR35) → 110.00 now: +10.0% vs PR35, bound 8%, FAIL"},
		},
		{
			name:    "missing workload result",
			results: map[string]string{"w1.json": resultJSON(12, 100)},
			wantErr: true,
			wantOut: []string{"w2: FAIL, no result"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root, results := t.TempDir(), t.TempDir()
			writeFiles(t, root, reports)
			writeFiles(t, results, tc.results)
			var out bytes.Buffer
			err := run(root, results, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run: err = %v, want error %v\n%s", err, tc.wantErr, out.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunSkipsOldShape(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string]string{"BENCHMARK.json": spec, "BENCH_PR5.json": oldShape, "BENCH_PR15.json": oldShape})
	if err := run(root, t.TempDir(), &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "no BENCH_PR<n>.json") {
		t.Fatalf("run with only pre-PR 17 reports: err = %v, want no usable report", err)
	}
}

// TestCommittedReports reads the repository's own BENCHMARK.json and
// BENCH_PR<n>.json: counts far below every median pass, and counts far above
// them fail, with PR 17 as the oldest report of the current shape.
func TestCommittedReports(t *testing.T) {
	for _, tc := range []struct {
		value   float64
		wantErr bool
	}{{1, false}, {1e9, true}} {
		results := t.TempDir()
		for _, wl := range []string{"mem-read", "mem-write", "tcp-read", "wan-remote"} {
			writeFiles(t, results, map[string]string{wl + ".json": resultJSON(tc.value, tc.value)})
		}
		var out bytes.Buffer
		err := run("../..", results, &out)
		if (err != nil) != tc.wantErr {
			t.Fatalf("counts at %g: err = %v, want error %v\n%s", tc.value, err, tc.wantErr, out.String())
		}
		if !strings.Contains(out.String(), "wan-remote msgs_per_tx 99.58 (PR17) → ") {
			t.Errorf("output lacks wan-remote's drift from PR17:\n%s", out.String())
		}
	}
}
