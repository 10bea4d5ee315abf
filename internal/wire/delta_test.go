package wire

import (
	"math"
	"math/rand"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
)

// deltaChainMessages are messages whose timestamp and TxID chains take the
// widest deltas: extreme timestamp pairs (whose difference overflows int64)
// and TxIDs that decrease.
func deltaChainMessages() []Message {
	pairs := [][]hlc.Timestamp{
		{0, hlc.MaxTimestamp},
		{hlc.MaxTimestamp, 0},
		{hlc.MaxTimestamp, hlc.MaxTimestamp},
		{1 << 63, (1 << 63) - 1},
		{math.MaxInt64, math.MaxInt64 + 1},
		{5, 5},
		{hlc.New(1<<47, 0), hlc.New(1, 1<<15)},
	}
	msgs := make([]Message, 0, len(pairs)+1)
	for _, pair := range pairs {
		msgs = append(msgs, GSTUp{Min: pair[0], Oldest: pair[1]})
	}
	// Repair items are sorted by UT, not TxID, so their ids may decrease.
	return append(msgs, ReplSyncResp{SrcDC: 1, Epoch: 1, NextSeq: 2, UpTo: hlc.New(99, 0), Items: []Item{
		{Key: "a", Value: []byte("1"), UT: hlc.New(10, 0), TxID: NewTxID(2, 5, 1000), SrcDC: 2},
		{Key: "b", Value: []byte("2"), UT: hlc.New(11, 0), TxID: NewTxID(2, 5, 3), SrcDC: 2},
		{Key: "c", Value: []byte("3"), UT: hlc.New(12, 0), TxID: NewTxID(0, 0, 0), SrcDC: 0},
	}})
}

// TestV2TimestampDeltaWraparound drives the zigzag delta chain through
// extreme timestamp pairs (including hlc.MaxTimestamp next to zero, whose
// delta overflows int64) to pin down that the unsigned-wraparound arithmetic
// is exact for all uint64 values.
func TestV2TimestampDeltaWraparound(t *testing.T) {
	for _, msg := range deltaChainMessages() {
		if _, ok := msg.(GSTUp); !ok {
			continue
		}
		got, err := Decode(Encode(msg))
		if err != nil {
			t.Fatalf("%#v: %v", msg, err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("delta chain corrupted %#v -> %#v", msg, got)
		}
	}
}

// TestV2TxIDDeltaChain exercises the independent TxID chain, including ids
// that decrease (repair items are sorted by UT, not TxID).
func TestV2TxIDDeltaChain(t *testing.T) {
	msgs := deltaChainMessages()
	msg := msgs[len(msgs)-1].(ReplSyncResp)
	got, err := Decode(Encode(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !equalMessages(msg, got) {
		t.Fatalf("TxID chain mismatch:\n sent %#v\n got  %#v", msg, got)
	}
}

// TestV2DecodeRejectsTruncation cuts the widest delta chains at every byte:
// a cut inside a ten-byte varint must be reported, not read as a short
// delta.
func TestV2DecodeRejectsTruncation(t *testing.T) {
	for _, msg := range deltaChainMessages() {
		data := Encode(msg)
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Fatalf("Decode accepted truncated %v at %d/%d bytes", msg.Kind(), cut, len(data))
			}
		}
	}
}

// TestV2DecodeRandomBytesNeverPanics feeds random bodies behind every kind
// byte, so each body decoder sees garbage (random leading bytes mostly name
// no kind and stop at the kind switch).
func TestV2DecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	buf := make([]byte, 256)
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(len(buf)-1)
		rng.Read(buf[1:n])
		buf[0] = byte(1 + i%int(KindHello))
		_, _ = Decode(buf[:n]) // must not panic; error is fine
	}
}

// TestDecodeArenaValuesIndependent pins down that the decode arena hands out
// non-aliasing value slices: appending to one decoded value must not clobber
// its neighbour, even though both live in one backing allocation.
func TestDecodeArenaValuesIndependent(t *testing.T) {
	msg := ReadSliceResp{Items: []Item{
		{Key: "a", Value: []byte("1111"), UT: 1, TxID: 1, SrcDC: 1},
		{Key: "b", Value: []byte("2222"), UT: 2, TxID: 2, SrcDC: 1},
	}}
	got, err := Decode(Encode(msg))
	if err != nil {
		t.Fatal(err)
	}
	items := got.(ReadSliceResp).Items
	_ = append(items[0].Value, 0xFF, 0xFF, 0xFF, 0xFF)
	if string(items[1].Value) != "2222" {
		t.Fatalf("appending to item 0 corrupted item 1: %q", items[1].Value)
	}
}
