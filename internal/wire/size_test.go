package wire

import (
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
)

// TestApproxSizeTracksEncodedSize: for the payload-bearing replication
// messages the estimate must stay within framing distance of the real
// encoded frame — the flow-control accounting depends on it.
func TestApproxSizeTracksEncodedSize(t *testing.T) {
	msgs := []Message{
		ReplicateBatch{SrcDC: 1, Epoch: 2, Seq: 3, UpTo: hlc.New(50, 0), Groups: []ReplicateGroup{
			{CT: hlc.New(31, 0), Txns: []TxUpdates{
				{TxID: 21, SrcDC: 3, Writes: []KV{{Key: "alpha", Value: make([]byte, 1024)}}},
				{TxID: 22, SrcDC: 3, Writes: []KV{{Key: "b", Value: []byte("v")}, {Key: "cc"}}},
			}},
		}},
		ReplicateBatch{SrcDC: 0, UpTo: hlc.New(70, 0)},
		ReplSyncResp{SrcDC: 2, Epoch: 1, NextSeq: 9, UpTo: hlc.New(80, 0), Items: []Item{
			{Key: "k1", Value: make([]byte, 512), UT: hlc.New(5, 0), TxID: 9, SrcDC: 2},
			{Key: "k2", Value: nil, UT: hlc.New(6, 0), TxID: 10, SrcDC: 1},
		}},
		ReplStatus{SrcDC: 1, Epoch: 4, UpTo: hlc.New(90, 0), QueuedBytes: 123456},
	}
	for _, msg := range msgs {
		checkApproxSize(t, msg, len(Encode(msg)))
	}
}

// checkApproxSize holds ApproxSize to the frame it estimates. The estimate
// charges every field its widest encoding, where the codec writes varints
// and deltas, so it may never fall below the frame — a flow-controlled link
// is never overcommitted — and may exceed it only by framing: at most 80
// bytes of header plus 32 per record (group, transaction, write or item),
// never by payload.
func checkApproxSize(t testing.TB, msg Message, encoded int) {
	t.Helper()
	records := 0
	switch m := msg.(type) {
	case ReplicateBatch:
		for _, g := range m.Groups {
			records++
			for _, tx := range g.Txns {
				records += 1 + len(tx.Writes)
			}
		}
	case ReplSyncResp:
		records = len(m.Items)
	}
	approx := ApproxSize(msg)
	if approx < encoded || approx > encoded+80+32*records {
		t.Errorf("%v: ApproxSize=%d for a frame of %d bytes with %d records", msg.Kind(), approx, encoded, records)
	}
}

// TestApproxSizeWidestFields pins the charge of a header-sized message: the
// kind byte and each field at its widest encoding (a bool one byte, a
// timestamp a ten-byte delta, a u64 a ten-byte varint), whatever the values.
func TestApproxSizeWidestFields(t *testing.T) {
	for _, m := range []GSTUp{{}, {Active: true, Min: hlc.New(7, 0), Oldest: hlc.MaxTimestamp, Round: 1<<64 - 1}} {
		if got := ApproxSize(m); got != 1+1+10+10+10 {
			t.Errorf("ApproxSize(%+v) = %d, want 32", m, got)
		}
	}
}

// TestApproxSizeAdditive pins what the replication builders rely on to size
// their chunks without walking them twice: a batch's estimate is its empty
// header's plus GroupSize of each group, and a repair response's is its
// empty header's plus ItemSize of each item.
func TestApproxSizeAdditive(t *testing.T) {
	for _, msg := range sampleMessages() {
		switch m := msg.(type) {
		case ReplicateBatch:
			want := ApproxSize(ReplicateBatch{})
			for _, g := range m.Groups {
				want += GroupSize(g)
			}
			if got := ApproxSize(m); got != want {
				t.Errorf("ApproxSize(%+v) = %d, header + GroupSize sum = %d", m, got, want)
			}
		case ReplSyncResp:
			want := ApproxSize(ReplSyncResp{})
			for _, it := range m.Items {
				want += ItemSize(it)
			}
			if got := ApproxSize(m); got != want {
				t.Errorf("ApproxSize(%+v) = %d, header + ItemSize sum = %d", m, got, want)
			}
		}
	}
}
