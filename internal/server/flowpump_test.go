package server

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/topology"
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

// testPump builds a pump with the given queue bounds wired to a bare server
// (ΔR 10 ms, no budget): submit and the credit work, step must not be driven.
func testPump(high, low int) *flowPump {
	p := newFlowPump(&Server{cfg: Config{ApplyInterval: 10 * time.Millisecond}}, topology.ServerID(1, 0))
	p.high, p.low = high, low
	return p
}

// TestFlowPumpSubmitCoalescesUnderPressure: with the pump not draining, a
// second round folds into the queue tail instead of growing the queue, and the
// coalesced batch carries the newest round's UpTo and label.
func TestFlowPumpSubmitCoalescesUnderPressure(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	p.submit([]wire.ReplicateBatch{flowChunk(1, 2, 32)}, nil, hlc.New(19, 0))
	p.submit([]wire.ReplicateBatch{flowChunk(2, 2, 32)}, nil, hlc.New(29, 0))
	p.submit([]wire.ReplicateBatch{flowChunk(3, 2, 32)}, nil, hlc.New(39, 0))
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

	p.submit([]wire.ReplicateBatch{flowChunk(1, 1, 256)}, nil, hlc.New(19, 0))
	p.submit([]wire.ReplicateBatch{flowChunk(2, 1, 256)}, nil, hlc.New(29, 0))
	if p.degraded {
		t.Fatal("degraded before crossing high water")
	}
	p.submit([]wire.ReplicateBatch{flowChunk(3, 1, 256)}, nil, hlc.New(39, 0)) // crosses: shed
	p.submit([]wire.ReplicateBatch{flowChunk(4, 1, 256)}, nil, hlc.New(49, 0)) // degraded: shed
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
	p.submit([]wire.ReplicateBatch{flowChunk(5, 1, 256)}, nil, hlc.New(59, 0))
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

// TestFlowCreditBurst: a fresh pump admits up to the burst at once, and the
// chunk past it waits for the credit the next rounds bring.
func TestFlowCreditBurst(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	p.setBudget(400 << 10) // burst 100 KiB, 4 KiB per 10 ms round
	p.refill(1)
	if !p.take(100 << 10) {
		t.Fatal("burst-sized chunk refused on a fresh pump")
	}
	if p.take(4 << 10) {
		t.Fatal("chunk past the burst admitted without waiting")
	}
	p.refill(2)
	if !p.take(4 << 10) {
		t.Fatal("one round's credit did not admit one round's bytes")
	}
	if p.take(1) {
		t.Fatal("chunk admitted with the credit spent")
	}
}

// TestFlowCreditZeroBudgetUnlimited: a budget of 0 or less paces nothing.
func TestFlowCreditZeroBudgetUnlimited(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	for _, rate := range []int{0, -5} {
		p.setBudget(rate)
		for i := 0; i < 100; i++ {
			if !p.take(1 << 20) {
				t.Fatalf("budget %d: chunk %d refused", rate, i)
			}
		}
	}
}

// TestFlowCreditNegativeBalance: a chunk larger than the burst is never
// refused outright; it drives the balance negative and waits its debt out,
// and so does everything behind it.
func TestFlowCreditNegativeBalance(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	p.setBudget(16 << 10) // burst 4 KiB, 163.84 bytes per round
	p.refill(1)
	const big = 20 << 10 // 16 KiB over the burst: 100 rounds of debt
	for r := int64(2); r <= 100; r++ {
		if p.take(big) {
			t.Fatalf("oversized chunk left after %d rounds, want 100", r-1)
		}
		p.refill(r)
	}
	p.refill(102)
	if !p.take(big) {
		t.Fatal("oversized chunk still held after its debt was paid")
	}
	if p.take(1 << 10) {
		t.Fatal("the chunk behind the oversized one left at once")
	}
}

// TestFlowCreditResetOnBudgetChange: a budget change resets the balance to
// the new burst, so raising it unsticks a pump deep in debt at once, and 0
// stops pacing.
func TestFlowCreditResetOnBudgetChange(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	p.setBudget(400) // burst 4 KiB, 2 bytes per round
	p.refill(1)
	if p.take(64 << 10) {
		t.Fatal("64 KiB admitted on a 4 KiB burst")
	}
	p.setBudget(1 << 30)
	if !p.take(64 << 10) {
		t.Fatal("raised budget did not admit the indebted chunk")
	}
	p.setBudget(400)
	if !p.take(4<<10) || p.take(1) {
		t.Fatal("lowered budget did not restart from its own burst")
	}
	p.setBudget(0)
	if !p.take(1 << 30) {
		t.Fatal("budget 0 still paces")
	}
}

// TestFlowCreditBurstFloor: the burst is a quarter of the budget, floored at
// 4 KiB so a small budget still admits a chunk of a few KiB.
func TestFlowCreditBurstFloor(t *testing.T) {
	p := testPump(1<<20, 1<<18)
	for _, tc := range []struct{ rate, burst int }{{500, 4 << 10}, {64 << 10, 16 << 10}} {
		p.setBudget(tc.rate)
		if !p.take(tc.burst) || p.take(1) {
			t.Fatalf("budget %d: burst is not %d bytes", tc.rate, tc.burst)
		}
	}
}

// TestFlowCreditRate: over N rounds the pump casts no more than the burst
// plus budget × N × ΔR, coalesced and shed rounds included, and keeps up with
// the budget while it is behind.
func TestFlowCreditRate(t *testing.T) {
	const budget, rounds = 64 << 10, 400
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.BandwidthBudget = budget
		c.BatchMaxBytes = 8 << 10
	})
	s := rig.srv
	peer := topology.ServerID(1, s.self.Partition())
	p := s.pumpFor(peer.DC)
	for r := uint64(1); r <= rounds; r++ {
		c := flowChunk(r, 1, 1000) // three times the budget's share of a round
		p.submit([]wire.ReplicateBatch{c}, nil, c.UpTo)
		p.step(int64(r))
	}
	p.mu.Lock()
	last := p.seq // the last cast carries it, and the link is FIFO
	p.mu.Unlock()
	var bytes int
	deadline := time.Now().Add(2 * time.Second)
	for {
		msgs := rig.peers[peer].byKind(wire.KindReplicateBatch)
		if n := len(msgs); n > 0 && msgs[n-1].(wire.ReplicateBatch).Seq == last {
			for _, m := range msgs {
				bytes += wire.ApproxSize(m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the cast with sequence number %d never arrived", last)
		}
		time.Sleep(time.Millisecond)
	}
	limit := budget/4 + budget*rounds*int(s.cfg.ApplyInterval)/int(time.Second)
	if bytes > limit {
		t.Fatalf("cast %d bytes in %d rounds, above burst + budget × rounds × ΔR = %d", bytes, rounds, limit)
	}
	if bytes < limit*3/4 {
		t.Fatalf("cast %d bytes in %d rounds, far below the budget's %d", bytes, rounds, limit)
	}
	st := s.FlowStats()[0]
	if st.Coalesced == 0 || st.ShedRounds == 0 {
		t.Fatalf("the pump never fell behind: %+v", st)
	}
	t.Logf("cast %d of %d bytes; %+v", bytes, limit, st)
}

// TestDefaultPumpsCastEachRoundInsideApplyTick: without a budget every peer
// replica still has a pump, bounded by the marks the chunk cap derives, and
// each round's chunk has left before applyTick returns.
func TestDefaultPumpsCastEachRoundInsideApplyTick(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	peers := rig.topo.PeerReplicas(s.self.Partition(), s.self.DC)
	if len(peers) == 0 || len(s.pumps) != len(peers) {
		t.Fatalf("%d pumps for %d peer replicas", len(s.pumps), len(peers))
	}
	for i, p := range s.pumps {
		if p.dest != peers[i] || p.high != 4<<20 || p.low != 1<<20 || p.perRound != 0 {
			t.Fatalf("pump %d: dest %v, bounds %d/%d, %v bytes per round; want %v, 4 MiB/1 MiB, unlimited",
				i, p.dest, p.high, p.low, p.perRound, peers[i])
		}
	}
	p := s.pumpFor(peers[0].DC)
	for r := 1; r <= 3; r++ {
		s.nextRound()
		p.mu.Lock()
		queued, seq := len(p.entries), p.seq
		p.mu.Unlock()
		if queued != 0 || seq != uint64(r) {
			t.Fatalf("after round %d: %d chunks queued, %d cast; want 0, %d", r, queued, seq, r)
		}
	}
	for i, m := range rig.peers[peers[0]].waitKind(t, wire.KindReplicateBatch, 3) {
		if b := m.(wire.ReplicateBatch); b.Seq != uint64(i+1) || b.Epoch != s.replEpoch {
			t.Fatalf("cast %d carries (%d, %d), want (%d, %d)", i, b.Epoch, b.Seq, s.replEpoch, i+1)
		}
	}
}

// TestRepairCutShortByCreditFinishesFirst: a repair the credit cannot cast in
// one round goes on over the next rounds, and no fresh chunk is cast until
// its last chunk has been.
func TestRepairCutShortByCreditFinishesFirst(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.BandwidthBudget = 16 << 10 // burst 4 KiB, ~82 bytes per 5 ms round
		c.BatchMaxBytes = 1 << 10    // one 1000-byte item per repair chunk
	})
	s := rig.srv
	const items = 6
	for i := 1; i <= items; i++ {
		s.Store().Apply(wire.Item{
			Key: fmt.Sprintf("k%d", i), Value: make([]byte, 1000),
			UT: hlc.New(uint64(i*100), 0), TxID: wire.TxID(i),
		})
	}
	peer := topology.ServerID(1, s.self.Partition())
	p := s.pumpFor(peer.DC)
	s.handleReplSyncReq(wire.ReplSyncReq{ReqDC: peer.DC})
	s.nextRound()
	p.mu.Lock()
	left := len(p.repair)
	p.mu.Unlock()
	if left == 0 {
		t.Fatal("the repair fit one round's credit")
	}
	for r := 0; ; r++ {
		p.mu.Lock()
		seq := p.seq
		p.mu.Unlock()
		if seq >= 2 {
			break
		}
		if r == 1000 {
			t.Fatal("no fresh chunk cast after the repair within 1000 rounds")
		}
		s.nextRound()
	}

	// The stream as the peer saw it: round 1's chunk, the whole repair, then
	// the rounds since, coalesced into the chunk the repair named. The link
	// is FIFO, so once that chunk is in, everything before it is.
	col := rig.peers[peer]
	col.waitKind(t, wire.KindReplicateBatch, 2)
	var stream []wire.Message
	col.mu.Lock()
	for _, m := range col.msgs {
		if k := m.Kind(); k == wire.KindReplicateBatch || k == wire.KindReplSyncResp {
			stream = append(stream, m)
		}
	}
	col.mu.Unlock()
	if len(stream) != items+2 {
		t.Fatalf("peer received %d replication casts, want %d", len(stream), items+2)
	}
	if b, ok := stream[0].(wire.ReplicateBatch); !ok || b.Seq != 1 {
		t.Fatalf("first cast %v, want round 1's chunk", stream[0])
	}
	for i, m := range stream[1 : items+1] {
		r, ok := m.(wire.ReplSyncResp)
		if !ok || len(r.Items) != 1 || r.NextSeq != 2 {
			t.Fatalf("cast %d is %v, want repair chunk %d of %d resuming at 2", i+1, m, i+1, items)
		}
	}
	if b, ok := stream[items+1].(wire.ReplicateBatch); !ok || b.Seq != 2 {
		t.Fatalf("cast after the repair is %v, want the fresh chunk with sequence number 2", stream[items+1])
	}
}

// TestDegradedPumpCastsStatusEveryRounds: a degraded pump casts its summary
// at once and then every ⌈max(16·ΔR, 50 ms)/ΔR⌉-th round.
func TestDegradedPumpCastsStatusEveryRounds(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.BandwidthBudget = 1     // the 4 KiB burst, then practically nothing
		c.BatchMaxBytes = 1 << 10 // 4 KiB queue bound
	})
	s := rig.srv
	p := s.pumpFor(1)
	if p.statusEvery != 16 {
		t.Fatalf("statusEvery = %d rounds at ΔR 5 ms, want 16", p.statusEvery)
	}
	var at []int64
	for r := int64(1); r <= 60; r++ {
		c := flowChunk(uint64(r), 1, 2000)
		p.submit([]wire.ReplicateBatch{c}, nil, c.UpTo)
		before := p.statusSent
		p.step(r)
		if p.statusSent != before {
			at = append(at, r)
		}
	}
	if len(at) < 3 {
		t.Fatalf("summaries at rounds %v, want one every 16 rounds", at)
	}
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] != 16 {
			t.Fatalf("summaries at rounds %v, want one every 16 rounds", at)
		}
	}
	rig.peers[topology.ServerID(1, s.self.Partition())].waitKind(t, wire.KindReplStatus, len(at))
}

// TestFlowPumpConcurrentAccess drives the apply round while the repair
// handler, SetFlowBudget and stats readers take the pumps' locks from other
// goroutines — the four parties the pump lock is shared by. Run under -race.
func TestFlowPumpConcurrentAccess(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.BandwidthBudget = 64 << 10
		c.BatchMaxBytes = 1 << 10
	})
	s := rig.srv
	for i := 1; i <= 20; i++ {
		s.Store().Apply(wire.Item{Key: fmt.Sprintf("k%d", i), Value: make([]byte, 300), UT: hlc.New(uint64(i), 0)})
	}
	s.handleReplSyncReq(wire.ReplSyncReq{ReqDC: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, touch := range []func(i int){
		func(i int) { s.handleReplSyncReq(wire.ReplSyncReq{ReqDC: 1, FromTS: hlc.New(uint64(i%20), 0)}) },
		func(i int) { s.SetFlowBudget([]int{0, 4 << 10, 64 << 10}[i%3]) },
		func(int) { _ = s.FlowStats(); _ = s.Metrics() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				touch(i)
				runtime.Gosched()
			}
		}()
	}
	for r := 0; r < 300; r++ {
		s.nextRound()
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	// Unlimited, one more round finishes whatever repair is under way.
	s.SetFlowBudget(0)
	s.nextRound()
	if m := s.Metrics(); m.ReplSyncServed == 0 {
		t.Fatal("no repair served")
	}
}
