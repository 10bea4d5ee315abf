package store

import (
	"fmt"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/wire"
)

// TestAllocBudgetApplyBatchSerial pins that a small batch — most apply rounds
// and replicated chunks — allocates nothing: ApplyBatch groups up to
// applyConcurrentMinItems items on the stack, and ApplyBatchConcurrent's
// serial fallback adds nothing to that. The same 8-item batches, applied to
// two stores that start equal, cost 0 through either entry point (chain growth
// amortizes to 0 per run over AllocsPerRun's runs).
func TestAllocBudgetApplyBatchSerial(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	items := make([]wire.Item, 8)
	for i := range items {
		items[i] = wire.Item{Key: fmt.Sprintf("key-%d", i), Value: []byte{byte(i)}, SrcDC: 1}
	}
	measure := func(apply func(*MVStore, []wire.Item)) float64 {
		s := New()
		var ut hlc.Timestamp
		return testing.AllocsPerRun(500, func() {
			// A fresh timestamp per run: every batch appends a version to
			// each chain, as a round's commits do.
			ut++
			for i := range items {
				items[i].UT, items[i].TxID = ut, wire.TxID(ut)
			}
			apply(s, items)
		})
	}
	serial := measure(func(s *MVStore, items []wire.Item) { s.ApplyBatch(items) })
	fallback := measure(func(s *MVStore, items []wire.Item) { s.ApplyBatchConcurrent(items, 4) })
	if serial != 0 {
		t.Fatalf("ApplyBatch(8 items) allocates %.2f, want 0", serial)
	}
	if fallback != serial {
		t.Fatalf("ApplyBatchConcurrent(8 items, 4 workers) allocates %.2f, ApplyBatch %.2f", fallback, serial)
	}
}
