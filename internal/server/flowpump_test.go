package server

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/wire"
)

// flowChunk builds a single-group ReplicateBatch for round r with n writes.
func flowChunk(r uint64, n int, valSize int) wire.ReplicateBatch {
	ct := hlc.New(r*10+5, 0)
	g := wire.ReplicateGroup{CT: ct}
	for i := 0; i < n; i++ {
		g.Txns = append(g.Txns, wire.TxUpdates{
			TxID:  wire.TxID(r*100 + uint64(i)),
			SrcDC: 1,
			Writes: []wire.KV{{
				Key:   fmt.Sprintf("k%d-%d", r, i),
				Value: make([]byte, valSize),
			}},
		})
	}
	return wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(r*10+9, 0), Round: r, Groups: []wire.ReplicateGroup{g}}
}

// applyBatchTo flattens a batch into a store the way handleReplicateBatch
// does.
func applyBatchTo(st *store.MVStore, b wire.ReplicateBatch) {
	for _, g := range b.Groups {
		for _, tx := range g.Txns {
			for _, kv := range tx.Writes {
				st.Apply(wire.Item{Key: kv.Key, Value: kv.Value, UT: g.CT, TxID: tx.TxID, SrcDC: tx.SrcDC})
			}
		}
	}
}

// TestFlowEntryMergeAppliesIdentically: a coalesced batch must apply to a
// store with exactly the same result as the unmerged chunk sequence, and
// its folded UpTo must equal the newest chunk's.
func TestFlowEntryMergeAppliesIdentically(t *testing.T) {
	chunks := []wire.ReplicateBatch{
		flowChunk(1, 3, 16),
		flowChunk(2, 1, 64),
		flowChunk(3, 0, 0), // empty heartbeat round
		flowChunk(4, 2, 8),
	}
	entry := flowEntry{batch: chunks[0], bytes: wire.ApproxSize(chunks[0])}
	for _, c := range chunks[1:] {
		entry.merge(c, wire.ApproxSize(c))
	}

	seq, merged := store.New(), store.New()
	for _, c := range chunks {
		applyBatchTo(seq, c)
	}
	applyBatchTo(merged, entry.batch)

	a := seq.VersionsIn(0, hlc.MaxTimestamp)
	b := merged.VersionsIn(0, hlc.MaxTimestamp)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged batch applied differently:\nunmerged: %v\nmerged:   %v", a, b)
	}
	if entry.batch.UpTo != chunks[3].UpTo {
		t.Fatalf("folded UpTo = %v, want %v", entry.batch.UpTo, chunks[3].UpTo)
	}
}

// TestFlowEntryMergeCopiesSharedGroups: applyTick shares one chunk's Groups
// slice across every destination's pump, so the first merge must copy
// rather than append in place.
func TestFlowEntryMergeCopiesSharedGroups(t *testing.T) {
	shared := flowChunk(1, 1, 8)
	// Two pumps queue the same chunk, then each merges a different round
	// into it.
	e1 := flowEntry{batch: shared, bytes: wire.ApproxSize(shared)}
	e2 := flowEntry{batch: shared, bytes: wire.ApproxSize(shared)}
	c2, c3 := flowChunk(2, 1, 8), flowChunk(3, 1, 8)
	e1.merge(c2, wire.ApproxSize(c2))
	e2.merge(c3, wire.ApproxSize(c3))

	if len(shared.Groups) != 1 {
		t.Fatalf("shared chunk mutated: %d groups", len(shared.Groups))
	}
	if len(e1.batch.Groups) != 2 || e1.batch.Groups[1].CT != c2.Groups[0].CT {
		t.Fatalf("pump 1 entry corrupted: %+v", e1.batch.Groups)
	}
	if len(e2.batch.Groups) != 2 || e2.batch.Groups[1].CT != c3.Groups[0].CT {
		t.Fatalf("pump 2 entry corrupted: %+v", e2.batch.Groups)
	}
}

// testPump builds a pump wired to a bare server: submit bookkeeping works
// (metrics are atomics), but step/run must not be driven.
func testPump(high, low int) *flowPump {
	return &flowPump{
		s:      &Server{},
		high:   high,
		low:    low,
		capMax: high,
		wake:   make(chan struct{}, 1),
	}
}

// TestFlowPumpSubmitCoalescesUnderPressure: with the pump not draining, a
// second round folds into the queue tail instead of growing the queue, and the
// coalesced batch carries the newest round's UpTo and label.
func TestFlowPumpSubmitCoalescesUnderPressure(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	p.submit([]wire.Message{flowChunk(1, 2, 32)}, nil, hlc.New(19, 0))
	p.submit([]wire.Message{flowChunk(2, 2, 32)}, nil, hlc.New(29, 0))
	p.submit([]wire.Message{flowChunk(3, 2, 32)}, nil, hlc.New(39, 0))
	if len(p.entries) != 1 {
		t.Fatalf("queue grew to %d entries, want 1 coalesced", len(p.entries))
	}
	if p.coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", p.coalesced)
	}
	if got := p.entries[0].batch; got.UpTo != hlc.New(39, 0) || got.Round != 3 {
		t.Fatalf("folded UpTo, Round = %v, %d; want %v, 3", got.UpTo, got.Round, hlc.New(39, 0))
	}
}

// TestFlowPumpShedsPastHighWater: the admission check is hard — queued
// bytes never exceed the high-water mark, rounds past it are shed, and the
// first admitted round after the shed window carries the burn marker.
func TestFlowPumpShedsPastHighWater(t *testing.T) {
	one := wire.ApproxSize(flowChunk(1, 1, 256))
	p := testPump(one*2+10, 1) // room for two chunks, low water below one
	p.capMax = 1               // disable coalescing so every round is its own entry

	p.submit([]wire.Message{flowChunk(1, 1, 256)}, nil, hlc.New(19, 0))
	p.submit([]wire.Message{flowChunk(2, 1, 256)}, nil, hlc.New(29, 0))
	if p.degraded {
		t.Fatal("degraded before crossing high water")
	}
	p.submit([]wire.Message{flowChunk(3, 1, 256)}, nil, hlc.New(39, 0)) // crosses: shed
	p.submit([]wire.Message{flowChunk(4, 1, 256)}, nil, hlc.New(49, 0)) // degraded: shed
	if !p.degraded {
		t.Fatal("not degraded after crossing high water")
	}
	if p.shedRounds != 2 || p.degradedEntries != 1 {
		t.Fatalf("shedRounds=%d degradedEntries=%d, want 2,1", p.shedRounds, p.degradedEntries)
	}
	if p.queuedBytes > p.high || p.maxQueuedBytes > p.high {
		t.Fatalf("queue bytes %d/%d exceed high water %d", p.queuedBytes, p.maxQueuedBytes, p.high)
	}
	if p.latestUB != hlc.New(49, 0) {
		t.Fatalf("latestUB = %v, want newest shed bound", p.latestUB)
	}

	// Drain below low water (simulating sends), then resume: the first
	// admitted round must carry the burn marker so the receiver detects
	// the shed window as a sequence gap.
	p.mu.Lock()
	p.entries = nil
	p.queuedBytes = 0
	p.mu.Unlock()
	p.submit([]wire.Message{flowChunk(5, 1, 256)}, nil, hlc.New(59, 0))
	if p.degraded {
		t.Fatal("still degraded after draining below low water")
	}
	if p.degradedExits != 1 {
		t.Fatalf("degradedExits = %d, want 1", p.degradedExits)
	}
	if len(p.entries) != 1 || !p.entries[0].burn {
		t.Fatalf("post-shed entry missing burn marker: %+v", p.entries)
	}
}

// TestFlowPumpRepairKeepsConservativeWatermark: concurrent repair requests
// fold to the smallest FromTS.
func TestFlowPumpRepairKeepsConservativeWatermark(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	p.requestRepair(hlc.New(50, 0))
	p.requestRepair(hlc.New(30, 0))
	p.requestRepair(hlc.New(90, 0))
	if !p.repairPending || p.repairFrom != hlc.New(30, 0) {
		t.Fatalf("repairFrom = %v (pending=%v), want 30", p.repairFrom, p.repairPending)
	}
}
