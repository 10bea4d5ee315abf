package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReport(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{
		Name: "unit",
		Desc: "test report",
		Rows: []ReportRow{{Label: "a", Ops: 10, TxPerSec: 100}},
		Summary: map[string]float64{
			"factor": 2,
		},
	}
	path, err := WriteReport(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_unit.json" {
		t.Fatalf("unexpected report path %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Name != "unit" || len(got.Rows) != 1 || got.Summary["factor"] != 2 {
		t.Fatalf("round-tripped report mismatch: %+v", got)
	}
	if got.GeneratedAt == "" {
		t.Fatal("report missing timestamp")
	}
}
