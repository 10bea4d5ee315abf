package wire

import (
	"math"
	"math/rand"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
)

func TestV2EncodeDecodeRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		data := EncodeV(msg, V2)
		got, err := DecodeV(data, V2)
		if err != nil {
			t.Fatalf("DecodeV(%v, V2): %v", msg.Kind(), err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("v2 round trip mismatch for %v:\n sent %#v\n got  %#v", msg.Kind(), msg, got)
		}
	}
}

// TestCrossVersionEquality pins down that both codec versions carry the same
// information: v1(m) and v2(m) decode to the same message for every sample.
func TestCrossVersionEquality(t *testing.T) {
	for _, msg := range sampleMessages() {
		v1, err := Decode(Encode(msg))
		if err != nil {
			t.Fatalf("v1 %v: %v", msg.Kind(), err)
		}
		v2, err := DecodeV(EncodeV(msg, V2), V2)
		if err != nil {
			t.Fatalf("v2 %v: %v", msg.Kind(), err)
		}
		if !equalMessages(v1, v2) {
			t.Fatalf("cross-version mismatch for %v:\n v1 %#v\n v2 %#v", msg.Kind(), v1, v2)
		}
	}
}

// TestV2DecodeRejectsTruncation mirrors the v1 property: every field of
// every message occupies at least one byte in v2 (varints are
// self-delimiting, the first timestamp/TxID occurrence is fixed-width), so
// no strict prefix of a valid frame may decode.
func TestV2DecodeRejectsTruncation(t *testing.T) {
	for _, msg := range sampleMessages() {
		data := EncodeV(msg, V2)
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeV(data[:cut], V2); err == nil {
				t.Fatalf("DecodeV accepted truncated v2 %v at %d/%d bytes", msg.Kind(), cut, len(data))
			}
		}
	}
}

func TestDecodeVRejectsUnknownVersion(t *testing.T) {
	data := Encode(Heartbeat{SrcDC: 1, TS: 5})
	for _, v := range []Version{0, 3, 255} {
		if _, err := DecodeV(data, v); err == nil {
			t.Fatalf("DecodeV accepted unsupported version %d", v)
		}
	}
}

// TestV2TimestampDeltaWraparound drives the zigzag delta chain through
// extreme timestamp pairs (including hlc.MaxTimestamp next to zero, whose
// delta overflows int64) to pin down that the unsigned-wraparound arithmetic
// is exact for all uint64 values.
func TestV2TimestampDeltaWraparound(t *testing.T) {
	pairs := [][]hlc.Timestamp{
		{0, hlc.MaxTimestamp},
		{hlc.MaxTimestamp, 0},
		{hlc.MaxTimestamp, hlc.MaxTimestamp},
		{1 << 63, (1 << 63) - 1},
		{math.MaxInt64, math.MaxInt64 + 1},
		{5, 5},
		{hlc.New(1<<47, 0), hlc.New(1, 1<<15)},
	}
	for _, pair := range pairs {
		msg := GSTUp{Min: pair[0], Oldest: pair[1]}
		got, err := DecodeV(EncodeV(msg, V2), V2)
		if err != nil {
			t.Fatalf("pair %v: %v", pair, err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("delta chain corrupted %v -> %#v", pair, got)
		}
	}
}

// TestV2TxIDDeltaChain exercises the independent TxID chain, including ids
// that decrease (repair items are sorted by UT, not TxID).
func TestV2TxIDDeltaChain(t *testing.T) {
	msg := ReplSyncResp{SrcDC: 1, Epoch: 1, NextSeq: 2, UpTo: hlc.New(99, 0), Items: []Item{
		{Key: "a", Value: []byte("1"), UT: hlc.New(10, 0), TxID: NewTxID(2, 5, 1000), SrcDC: 2},
		{Key: "b", Value: []byte("2"), UT: hlc.New(11, 0), TxID: NewTxID(2, 5, 3), SrcDC: 2},
		{Key: "c", Value: []byte("3"), UT: hlc.New(12, 0), TxID: NewTxID(0, 0, 0), SrcDC: 0},
	}}
	got, err := DecodeV(EncodeV(msg, V2), V2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMessages(msg, got) {
		t.Fatalf("TxID chain mismatch:\n sent %#v\n got  %#v", msg, got)
	}
}

// TestV2SmallerThanV1 is the point of the exercise: a replication batch
// shaped like the hot-mix workload (dense commit timestamps, sequential
// TxIDs, short keys, 8-byte values) must shrink by at least the 25% the PR
// budgets for.
func TestV2SmallerThanV1(t *testing.T) {
	batch := ReplicateBatch{SrcDC: 2, Epoch: 7, Seq: 12345, UpTo: hlc.New(5000, 0)}
	for g := 0; g < 32; g++ {
		grp := ReplicateGroup{CT: hlc.New(uint64(4000+g), uint16(g))}
		for x := 0; x < 4; x++ {
			grp.Txns = append(grp.Txns, TxUpdates{
				TxID:  NewTxID(2, 7, uint64(100000+g*4+x)),
				SrcDC: 2,
				Writes: []KV{
					{Key: "user:12345678", Value: []byte("12345678")},
				},
			})
		}
		batch.Groups = append(batch.Groups, grp)
	}
	v1 := len(Encode(batch))
	v2 := len(EncodeV(batch, V2))
	t.Logf("v1 %d bytes, v2 %d bytes (%.1f%% of v1)", v1, v2, 100*float64(v2)/float64(v1))
	if float64(v2) > 0.75*float64(v1) {
		t.Fatalf("v2 frame %d bytes is not ≥25%% smaller than v1 %d bytes", v2, v1)
	}
}

// TestV2DecodeRandomBytesNeverPanics mirrors the v1 robustness test on the
// varint decoder.
func TestV2DecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	buf := make([]byte, 256)
	for i := 0; i < 20000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		_, _ = DecodeV(buf[:n], V2) // must not panic; error is fine
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
	for _, v := range []Version{V1, V2} {
		got, err := DecodeV(EncodeV(msg, v), v)
		if err != nil {
			t.Fatal(err)
		}
		items := got.(ReadSliceResp).Items
		_ = append(items[0].Value, 0xFF, 0xFF, 0xFF, 0xFF)
		if string(items[1].Value) != "2222" {
			t.Fatalf("v%d: appending to item 0 corrupted item 1: %q", v, items[1].Value)
		}
	}
}

func BenchmarkEncodeReplicateBatchV2(b *testing.B) {
	msg := makeBatch(8, 8, 2)
	buf := make([]byte, 0, 16<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMessageV(buf[:0], msg, V2)
	}
}

func BenchmarkDecodeReplicateBatchV2(b *testing.B) {
	data := EncodeV(makeBatch(8, 8, 2), V2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeV(data, V2); err != nil {
			b.Fatal(err)
		}
	}
}
