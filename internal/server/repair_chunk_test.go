package server

import (
	"fmt"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

func TestBuildRepairChunksSplitsBetweenUTGroupsOnly(t *testing.T) {
	// Items cost 38–39 bytes each: an 80-byte cap fits two.
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) { c.BatchMaxBytes = 80 })
	s := rig.srv

	// Deliberately shuffled: the store returns versions in map order, so
	// buildRepairChunks must sort before slicing.
	items := []wire.Item{
		{Key: "d", Value: []byte("4"), UT: hlc.New(40, 0), TxID: 6},
		{Key: "a1", Value: []byte("1"), UT: hlc.New(10, 0), TxID: 1},
		{Key: "c", Value: []byte("3"), UT: hlc.New(30, 0), TxID: 5},
		{Key: "a2", Value: []byte("1"), UT: hlc.New(10, 0), TxID: 2},
		{Key: "b", Value: []byte("2"), UT: hlc.New(20, 0), TxID: 4},
		{Key: "a3", Value: []byte("1"), UT: hlc.New(10, 0), TxID: 3},
	}
	ub := hlc.New(99, 0)
	chunks := s.buildRepairChunks(items, 7, ub)

	// Two items fill the cap, but the three UT-10 items may not split: the
	// first chunk carries all of them. Then [20,30] (the split check fires
	// only when the budget would be exceeded AND the UT changes), then [40].
	wantLens := []int{3, 2, 1}
	wantUpTo := []hlc.Timestamp{hlc.New(10, 0), hlc.New(30, 0), ub}
	if len(chunks) != len(wantLens) {
		t.Fatalf("got %d chunks, want %d: %+v", len(chunks), len(wantLens), chunks)
	}
	var prev hlc.Timestamp
	for i, c := range chunks {
		if len(c.Items) != wantLens[i] || c.UpTo != wantUpTo[i] {
			t.Fatalf("chunk %d: %d items UpTo %v, want %d items UpTo %v",
				i, len(c.Items), c.UpTo, wantLens[i], wantUpTo[i])
		}
		if c.SrcDC != s.self.DC || c.Epoch != s.replEpoch || c.NextSeq != 7 {
			t.Fatalf("chunk %d header = dc %d epoch %d next %d", i, c.SrcDC, c.Epoch, c.NextSeq)
		}
		for _, it := range c.Items {
			if it.UT < prev {
				t.Fatalf("chunk %d out of order: %v after %v", i, it.UT, prev)
			}
			prev = it.UT
		}
		// Store-then-publish: nothing at or below an interior UpTo may live
		// in a later chunk.
		for j := i + 1; j < len(chunks); j++ {
			for _, it := range chunks[j].Items {
				if it.UT <= c.UpTo {
					t.Fatalf("chunk %d publishes %v but chunk %d still carries UT %v",
						i, c.UpTo, j, it.UT)
				}
			}
		}
	}
}

func TestBuildRepairChunksEmptyRangeIsSingleBound(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	chunks := s.buildRepairChunks(nil, 3, hlc.New(500, 0))
	if len(chunks) != 1 || len(chunks[0].Items) != 0 || chunks[0].UpTo != hlc.New(500, 0) {
		t.Fatalf("empty repair = %+v, want one empty chunk carrying ub", chunks)
	}
	if chunks[0].NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3", chunks[0].NextSeq)
	}
}

// TestMaybeReplSyncServesChunkedRepair: a repair request is served by the
// pump toward the requester's DC in the next apply round, in chunks of the
// cap, all naming the stream position after the round's own chunk.
func TestMaybeReplSyncServesChunkedRepair(t *testing.T) {
	// Items cost 38 bytes each (wire.ItemSize): a 40-byte cap holds one.
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) { c.BatchMaxBytes = 40 })
	s := rig.srv

	for i := 1; i <= 3; i++ {
		s.Store().Apply(wire.Item{
			Key: fmt.Sprintf("k%d", i), Value: []byte("v"),
			UT: hlc.New(uint64(i*100), 0), TxID: wire.TxID(i), SrcDC: 0,
		})
	}
	s.handleReplSyncReq(wire.ReplSyncReq{ReqDC: 1, FromTS: 0})

	peer := topology.ServerID(1, s.self.Partition())
	p := s.pumpFor(peer.DC)
	s.nextRound()
	ub := s.VersionVector()[s.self.DC]

	resps := rig.peers[peer].waitKind(t, wire.KindReplSyncResp, 3)
	var maxSize uint64
	for i, r := range resps {
		resp := r.(wire.ReplSyncResp)
		if len(resp.Items) != 1 {
			t.Fatalf("chunk %d carries %d items, want 1 (one per cap)", i, len(resp.Items))
		}
		if resp.NextSeq != p.seq+1 || resp.Epoch != s.replEpoch {
			t.Fatalf("chunk %d resume position = (%d,%d)", i, resp.Epoch, resp.NextSeq)
		}
		if sz := uint64(wire.ApproxSize(resp)); sz > maxSize {
			maxSize = sz
		}
	}
	if last := resps[2].(wire.ReplSyncResp); last.UpTo != ub {
		t.Fatalf("final chunk UpTo = %v, want %v", last.UpTo, ub)
	}

	m := s.Metrics()
	if m.ReplSyncServed != 1 {
		t.Fatalf("ReplSyncServed = %d, want 1 (one request, many chunks)", m.ReplSyncServed)
	}
	if m.RepairChunksServed != 3 {
		t.Fatalf("RepairChunksServed = %d, want 3", m.RepairChunksServed)
	}
	if m.RepairChunkMaxBytes != maxSize {
		t.Fatalf("RepairChunkMaxBytes = %d, want %d", m.RepairChunkMaxBytes, maxSize)
	}
}

func TestReplPreRequestFiresOnlyWhenBehind(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	src := topology.ServerID(1, s.self.Partition())

	// Latch the stream at (epoch 7, next seq 2).
	if !s.replInAccept(wire.ReplicateBatch{SrcDC: 1, Epoch: 7, Seq: 1}) {
		t.Fatal("first sequenced chunk rejected")
	}

	// Status matching the cursor: nothing to pre-request.
	s.handleReplStatus(wire.ReplStatus{SrcDC: 1, Epoch: 7, NextSeq: 2, UpTo: hlc.New(10, 0)})
	if got := s.Metrics().ReplSyncRequested; got != 0 {
		t.Fatalf("in-sync status triggered %d repair requests", got)
	}

	// Status announcing a future resume position: the receiver pre-requests
	// the repair before the first post-resume chunk can be dropped.
	s.handleReplStatus(wire.ReplStatus{SrcDC: 1, Epoch: 7, NextSeq: 5, UpTo: hlc.New(50, 0)})
	reqs := rig.peers[src].waitKind(t, wire.KindReplSyncReq, 1)
	req := reqs[0].(wire.ReplSyncReq)
	if req.ReqDC != s.self.DC {
		t.Fatalf("ReqDC = %d, want %d", req.ReqDC, s.self.DC)
	}

	// An unlatched stream never pre-requests: a fresh cursor latches onto
	// the next chunk instead of repairing from zero.
	rig2 := newTestRig(t, ModeNonBlocking)
	rig2.srv.handleReplStatus(wire.ReplStatus{SrcDC: 1, Epoch: 9, NextSeq: 40, UpTo: hlc.New(10, 0)})
	if got := rig2.srv.Metrics().ReplSyncRequested; got != 0 {
		t.Fatalf("unlatched stream pre-requested %d times", got)
	}
}
