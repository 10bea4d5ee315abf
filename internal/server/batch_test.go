package server

import (
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// sequenced stamps b as the next chunk of its source DC's stream at s, the
// way a live sender does, so a hand-built batch passes the receiver's
// sequencing check (replInAccept). A fresh cursor latches onto epoch 1.
func sequenced(s *Server, b wire.ReplicateBatch) wire.ReplicateBatch {
	st := &s.replIn[b.SrcDC]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.epoch == 0 {
		b.Epoch, b.Seq = 1, 1
	} else {
		b.Epoch, b.Seq = st.epoch, st.nextSeq
	}
	return b
}

func TestReplicateBatchAppliesAndAdvancesVV(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	batch := wire.ReplicateBatch{
		SrcDC: 1,
		UpTo:  hlc.New(2500, 0), // beyond the last group: covers an idle tail
		Groups: []wire.ReplicateGroup{
			{CT: hlc.New(2000, 0), Txns: []wire.TxUpdates{
				{TxID: 77, SrcDC: 1, Writes: []wire.KV{{Key: "r", Value: []byte("remote")}}},
			}},
			{CT: hlc.New(2100, 0), Txns: []wire.TxUpdates{
				{TxID: 78, SrcDC: 1, Writes: []wire.KV{{Key: "r", Value: []byte("newer")}}},
				{TxID: 79, SrcDC: 1, Writes: []wire.KV{{Key: "s", Value: []byte("other")}}},
			}},
		},
	}
	s.handleReplicateBatch(sequenced(s, batch))

	item, ok := s.Store().Read("r", hlc.MaxTimestamp)
	if !ok || string(item.Value) != "newer" || item.SrcDC != 1 {
		t.Fatalf("remote updates not applied: %+v %v", item, ok)
	}
	if _, ok := s.Store().Read("s", hlc.MaxTimestamp); !ok {
		t.Fatal("second group not applied")
	}
	// The vector entry advances to UpTo, not merely the last group's CT.
	if got := s.VersionVector()[1]; got != hlc.New(2500, 0) {
		t.Fatalf("VV[1] = %v, want 2500.0", got)
	}

	// Delivering the same content again, as a later chunk, is idempotent.
	s.handleReplicateBatch(sequenced(s, batch))
	if n := s.Store().VersionCount("r"); n != 2 {
		t.Fatalf("duplicate batch changed chain length: %d versions, want 2", n)
	}

	m := s.Metrics()
	if m.ReplBatches != 2 || m.ReplGroups != 4 || m.ReplItems != 6 {
		t.Fatalf("metrics = batches %d groups %d items %d, want 2/4/6",
			m.ReplBatches, m.ReplGroups, m.ReplItems)
	}
}

func TestReplicateBatchEmptyActsAsHeartbeat(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(3000, 0)}))
	if got := s.VersionVector()[1]; got != hlc.New(3000, 0) {
		t.Fatalf("VV[1] = %v, want 3000.0", got)
	}
	// Regressions are ignored.
	s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(2000, 0)}))
	if got := s.VersionVector()[1]; got != hlc.New(3000, 0) {
		t.Fatalf("VV regressed to %v", got)
	}
}

// TestReplicateBatchUnsequencedDropped: a batch with Epoch 0 names no sender
// incarnation. It neither applies its items nor advances the version vector,
// and it does not latch the fresh stream cursor, so the sender's first real
// chunk is still accepted.
func TestReplicateBatchUnsequencedDropped(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	before := s.VersionVector()[1]
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(3000, 0), Groups: []wire.ReplicateGroup{
		{CT: hlc.New(2000, 0), Txns: []wire.TxUpdates{
			{TxID: 77, SrcDC: 1, Writes: []wire.KV{{Key: "r", Value: []byte("unsequenced")}}},
		}},
	}})
	if _, ok := s.Store().Read("r", hlc.MaxTimestamp); ok {
		t.Fatal("unsequenced batch applied its items")
	}
	if got := s.VersionVector()[1]; got != before {
		t.Fatalf("unsequenced batch moved VV[1] from %v to %v", before, got)
	}
	if m := s.Metrics(); m.ReplBatches != 0 || m.ReplItems != 0 {
		t.Fatalf("unsequenced batch counted: %d batches, %d items", m.ReplBatches, m.ReplItems)
	}
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 1, Epoch: 5, Seq: 1, UpTo: hlc.New(3000, 0)})
	if got := s.VersionVector()[1]; got != hlc.New(3000, 0) {
		t.Fatalf("first sequenced chunk after the drop: VV[1] = %v, want 3000.0", got)
	}
}

// mkCommitted builds one committedTx with n single-byte writes at ct.
func mkCommitted(id wire.TxID, ct hlc.Timestamp, n int) committedTx {
	c := committedTx{id: id, ct: ct, srcDC: 0}
	for i := 0; i < n; i++ {
		c.writes = append(c.writes, wire.KV{Key: "k", Value: []byte{byte(i)}})
	}
	return c
}

func TestBuildReplicateBatchesCoalescesOneRound(t *testing.T) {
	ready := []committedTx{
		mkCommitted(1, 10, 2),
		mkCommitted(2, 10, 1), // same CT: same group
		mkCommitted(3, 11, 1),
	}
	chunks, _ := buildReplicateBatches(nil, nil, 0, 7, ready, 50, 1<<20)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	b := chunks[0]
	if len(b.Groups) != 2 || b.UpTo != 50 {
		t.Fatalf("batch = %d groups UpTo %v, want 2 groups UpTo 50", len(b.Groups), b.UpTo)
	}
	if len(b.Groups[0].Txns) != 2 || b.Groups[0].CT != 10 {
		t.Fatalf("group 0 = %+v", b.Groups[0])
	}
}

func TestBuildReplicateBatchesEmptyRoundIsHeartbeat(t *testing.T) {
	chunks, _ := buildReplicateBatches(nil, nil, 2, 7, nil, 99, 1<<20)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	b := chunks[0]
	if len(b.Groups) != 0 || b.UpTo != 99 || b.SrcDC != 2 || b.Round != 7 {
		t.Fatalf("heartbeat batch = %+v", b)
	}
}

func TestBuildReplicateBatchesSplitsAtGroupBoundaries(t *testing.T) {
	ready := []committedTx{
		mkCommitted(1, 10, 3),
		mkCommitted(2, 11, 3),
		mkCommitted(3, 12, 3),
	}
	// A group of three one-byte writes is 66 bytes: a 100-byte cap fits one.
	chunks, _ := buildReplicateBatches(nil, nil, 0, 7, ready, 50, 100)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3 (maxBytes=100, 66 bytes/group)", len(chunks))
	}
	// Interior chunks announce only their last CT; the final one carries ub.
	for i, b := range chunks {
		if len(b.Groups) != 1 {
			t.Fatalf("chunk %d has %d groups, want 1", i, len(b.Groups))
		}
		wantUpTo := b.Groups[0].CT
		if i == len(chunks)-1 {
			wantUpTo = 50
		}
		if b.UpTo != wantUpTo {
			t.Fatalf("chunk %d UpTo = %v, want %v", i, b.UpTo, wantUpTo)
		}
	}
}

func TestBuildReplicateBatchesOversizedGroupTravelsWhole(t *testing.T) {
	ready := []committedTx{
		mkCommitted(1, 10, 100), // single group far above maxBytes
		mkCommitted(2, 11, 1),
	}
	chunks, _ := buildReplicateBatches(nil, nil, 0, 7, ready, 50, 80)
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	first := chunks[0]
	if first.Items() != 100 || len(first.Groups) != 1 {
		t.Fatalf("oversized group was split: %d items in %d groups",
			first.Items(), len(first.Groups))
	}
	if first.UpTo != 10 {
		t.Fatalf("interior chunk UpTo = %v, want 10", first.UpTo)
	}
}

func TestBuildReplicateBatchesByteCap(t *testing.T) {
	ready := []committedTx{
		mkCommitted(1, 10, 1),
		mkCommitted(2, 11, 1),
	}
	// Each write is ~10 encoded bytes; a 1-byte cap forces one group per chunk.
	chunks, _ := buildReplicateBatches(nil, nil, 0, 7, ready, 50, 1)
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
}
