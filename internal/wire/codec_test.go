package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
)

// sampleMessages returns one instance of every message kind, with both zero
// and populated fields represented.
func sampleMessages() []Message {
	return []Message{
		StartTxReq{},
		StartTxReq{ClientUST: hlc.New(123456, 7)},
		StartTxResp{TxID: NewTxID(3, 12, 99), Snapshot: hlc.New(88, 1)},
		ReadReq{TxID: NewTxID(0, 0, 1), Keys: []string{"a", "bb", ""}},
		ReadReq{TxID: NewTxID(1, 2, 3)},
		ReadReq{ClientUST: hlc.New(654, 3), Keys: []string{"first"}}, // starts the transaction
		ReadReq{ClientUST: hlc.New(654, 3), Keys: []string{"first"}, // ... with two keys the write cache holds
			Cached: []CachedKey{{Key: "mine", UT: hlc.New(650, 1)}, {Key: "", UT: hlc.MaxTimestamp}}},
		ReadReq{Cached: []CachedKey{{Key: "only", UT: 1}}},
		ReadResp{},
		ReadResp{TxID: NewTxID(2, 5, 77), Snapshot: hlc.New(700, 0), Items: []Item{
			{Key: "x", Value: []byte{1, 2, 3}, UT: hlc.New(5, 0), TxID: 9, SrcDC: 2},
			{Key: "", Value: nil, UT: 0, TxID: 0, SrcDC: 0},
		}},
		CommitReq{TxID: 7, HWT: hlc.New(4, 4), Writes: []KV{{Key: "k", Value: []byte("v")}}},
		CommitReq{TxID: 8},
		CommitReq{ClientUST: hlc.New(3, 9), HWT: hlc.New(4, 5), Writes: []KV{{Key: "only"}}}, // starts the transaction
		CommitResp{CommitTS: hlc.New(1000, 65535)},
		CommitResp{TxID: NewTxID(1, 1, 6), Snapshot: hlc.New(999, 0), CommitTS: hlc.New(1001, 2)},
		FinishTx{TxID: NewTxID(9, 500, 1<<39)},
		ReadSliceReq{Keys: []string{"p", "q"}, Snapshot: hlc.New(77, 3)},
		ReadSliceResp{Items: []Item{{Key: "z", Value: []byte{}, UT: 1, TxID: 2, SrcDC: 1}}},
		PrepareReq{TxID: 3, Snapshot: 10, HT: 20, Writes: []KV{{Key: "a", Value: []byte("xy")}, {Key: "b"}}},
		PrepareResp{TxID: 3, Proposed: hlc.New(21, 0)},
		PrepareBatch{Reqs: []PrepareReq{
			{TxID: 4, Snapshot: 11, HT: 21, Writes: []KV{{Key: "c", Value: []byte("z")}}},
			{TxID: 5, Snapshot: 12, HT: 22},
		}},
		PrepareBatch{},
		PrepareBatchResp{Resps: []PrepareResult{
			{TxID: 4, Proposed: hlc.New(23, 1)},
			{TxID: 5, Code: CodeTxAborted, Msg: "conflict"},
		}},
		PrepareBatchResp{},
		CohortCommit{TxID: 3, CommitTS: hlc.New(25, 2)},
		CommitRecover{TxID: 6, CommitTS: hlc.New(26, 0), Writes: []KV{{Key: "r", Value: []byte("w")}}},
		CommitRecover{},
		ReplSyncReq{ReqDC: 2, FromTS: hlc.New(42, 0)},
		ReplSyncResp{SrcDC: 1, Epoch: 9, NextSeq: 33, UpTo: hlc.New(43, 0), Items: []Item{
			{Key: "s", Value: []byte("t"), UT: hlc.New(41, 2), TxID: NewTxID(1, 4, 7), SrcDC: 1},
		}},
		ReplSyncResp{},
		AbortTx{TxID: NewTxID(2, 7, 41)},
		AbortTx{},
		TxStatusReq{TxID: NewTxID(1, 3, 17)},
		TxStatusResp{TxID: NewTxID(1, 3, 17), Status: TxStatusCommitted, CommitTS: hlc.New(90, 1)},
		TxStatusResp{Status: TxStatusUnknown},
		ReplicateBatch{SrcDC: 3, Epoch: 2, Seq: 17, UpTo: hlc.New(60, 0),
			UST: hlc.New(58, 0), Sold: hlc.New(55, 0), Round: 354_012_345_678, Groups: []ReplicateGroup{
				{CT: hlc.New(31, 0), Txns: []TxUpdates{
					{TxID: 21, SrcDC: 3, Writes: []KV{{Key: "a", Value: []byte("1")}}},
					{TxID: 22, SrcDC: 3},
				}},
				{CT: hlc.New(32, 0), Txns: []TxUpdates{
					{TxID: 23, SrcDC: 1, Writes: []KV{{Key: "b"}, {Key: "c", Value: []byte{0}}}},
				}},
			}},
		ReplicateBatch{SrcDC: 0, UpTo: hlc.New(70, 0)},
		ReplicateBatch{SrcDC: 1, UpTo: hlc.New(71, 0), Round: 1},
		GSTUp{Active: true, Min: hlc.New(12, 3), Oldest: 2, Round: 354_012_345_678},
		GSTUp{},
		GSTRoot{DC: 1, Active: true, Min: hlc.MaxTimestamp, Oldest: 6, Round: 1<<64 - 1},
		GSTRoot{},
		ReplStatus{SrcDC: 2, Epoch: 5, NextSeq: 18, UpTo: hlc.New(44, 1),
			UST: hlc.New(43, 0), Sold: hlc.New(40, 0), QueuedBytes: 1 << 20},
		ReplStatus{},
		USTDown{UST: hlc.New(55, 0), Sold: hlc.New(50, 0), Active: true},
		ErrorResp{Code: CodeShuttingDown, Msg: "stopping"},
		ErrorResp{},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		data := Encode(msg)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%v): %v", msg.Kind(), err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("round trip mismatch for %v:\n sent %#v\n got  %#v", msg.Kind(), msg, got)
		}
	}
}

// equalMessages compares messages treating nil and empty slices as equal
// (the codec does not distinguish them, and the protocol never needs to).
func equalMessages(a, b Message) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case ReadReq:
		v.Keys = normStrings(v.Keys)
		if len(v.Cached) == 0 {
			v.Cached = nil
		}
		return v
	case ReadResp:
		v.Items = normItems(v.Items)
		return v
	case ReadSliceReq:
		v.Keys = normStrings(v.Keys)
		return v
	case ReadSliceResp:
		v.Items = normItems(v.Items)
		return v
	case CommitReq:
		v.Writes = normKVs(v.Writes)
		return v
	case PrepareReq:
		v.Writes = normKVs(v.Writes)
		return v
	case PrepareBatch:
		if len(v.Reqs) == 0 {
			v.Reqs = nil
		}
		for i := range v.Reqs {
			v.Reqs[i].Writes = normKVs(v.Reqs[i].Writes)
		}
		return v
	case PrepareBatchResp:
		if len(v.Resps) == 0 {
			v.Resps = nil
		}
		return v
	case CommitRecover:
		v.Writes = normKVs(v.Writes)
		return v
	case ReplicateBatch:
		if len(v.Groups) == 0 {
			v.Groups = nil
		}
		for gi := range v.Groups {
			g := &v.Groups[gi]
			if len(g.Txns) == 0 {
				g.Txns = nil
			}
			for i := range g.Txns {
				g.Txns[i].Writes = normKVs(g.Txns[i].Writes)
			}
		}
		return v
	default:
		return m
	}
}

func normStrings(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	return ss
}

func normKVs(kvs []KV) []KV {
	if len(kvs) == 0 {
		return nil
	}
	for i := range kvs {
		if len(kvs[i].Value) == 0 {
			kvs[i].Value = nil
		}
	}
	return kvs
}

func normItems(items []Item) []Item {
	if len(items) == 0 {
		return nil
	}
	for i := range items {
		if len(items[i].Value) == 0 {
			items[i].Value = nil
		}
	}
	return items
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, msg := range sampleMessages() {
		data := Encode(msg)
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				// Every field occupies at least one byte (varints are
				// self-delimiting, the head of each delta chain is fixed
				// width), so any successful decode of a strict prefix is a
				// codec bug.
				t.Fatalf("Decode accepted truncated %v at %d/%d bytes", msg.Kind(), cut, len(data))
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	data := Encode(ReplicateBatch{SrcDC: 1, UpTo: 5})
	data = append(data, 0xFF)
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted trailing garbage")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Fatal("Decode accepted unknown kind")
	}
	// The retired kinds are rejected as malformed whatever their body: a
	// well-formed Heartbeat body (SrcDC, TS) after each of them.
	for _, k := range []Kind{KindReplicate, KindHeartbeat, KindHello} {
		data := binary.LittleEndian.AppendUint64([]byte{byte(k), 1}, 5)
		if _, err := Decode(data); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Decode(%v) = %v, want ErrMalformed", k, err)
		}
	}
}

func TestDecodeRejectsEmpty(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode accepted empty buffer")
	}
}

func TestDecodeRejectsHugeLengthPrefix(t *testing.T) {
	// A ReadReq claiming 2^31 keys must fail fast, not allocate.
	data := []byte{byte(KindReadReq)}
	data = binary.LittleEndian.AppendUint64(data, 1) // TxID, head of its chain
	data = binary.LittleEndian.AppendUint64(data, 0) // ClientUST, head of its chain
	data = binary.AppendUvarint(data, 1<<31-1)
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted absurd slice length")
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 256)
	for i := 0; i < 20000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		_, _ = Decode(buf[:n]) // must not panic; error is fine
	}
}

func TestQuickRoundTripCommitReq(t *testing.T) {
	f := func(tx uint64, hwt uint64, keys []string, vals [][]byte) bool {
		writes := make([]KV, 0, len(keys))
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			writes = append(writes, KV{Key: k, Value: v})
		}
		msg := CommitReq{TxID: TxID(tx), ClientUST: hlc.Timestamp(tx ^ hwt), HWT: hlc.Timestamp(hwt), Writes: writes}
		got, err := Decode(Encode(msg))
		return err == nil && equalMessages(msg, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripReplicate(t *testing.T) {
	f := func(src uint8, ct uint64, txids []uint64) bool {
		txns := make([]TxUpdates, 0, len(txids))
		for _, id := range txids {
			txns = append(txns, TxUpdates{
				TxID:   TxID(id),
				SrcDC:  topology.DCID(src),
				Writes: []KV{{Key: "k", Value: []byte{byte(id)}}},
			})
		}
		msg := ReplicateBatch{SrcDC: topology.DCID(src), UpTo: hlc.Timestamp(ct),
			Groups: []ReplicateGroup{{CT: hlc.Timestamp(ct), Txns: txns}}}
		got, err := Decode(Encode(msg))
		return err == nil && equalMessages(msg, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendMessageAppends(t *testing.T) {
	prefix := []byte("hdr:")
	out := AppendMessage(prefix, ReplicateBatch{SrcDC: 1, UpTo: 2})
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendMessage clobbered prefix")
	}
	msg, err := Decode(out[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if hb, ok := msg.(ReplicateBatch); !ok || hb.SrcDC != 1 || hb.UpTo != 2 {
		t.Fatalf("decoded %#v", msg)
	}
}

func TestTxIDPackingAndOrder(t *testing.T) {
	id := NewTxID(3, 12, 99)
	if got := id.String(); got != "3/12/99" {
		t.Fatalf("TxID string = %q", got)
	}
	// Sequence numbers within a coordinator are ordered.
	if NewTxID(1, 1, 5) >= NewTxID(1, 1, 6) {
		t.Fatal("TxID does not order by sequence")
	}
	// Distinct coordinators yield distinct ids even at the same seq.
	if NewTxID(1, 1, 5) == NewTxID(1, 2, 5) || NewTxID(1, 1, 5) == NewTxID(2, 1, 5) {
		t.Fatal("TxID collision across coordinators")
	}
}

func TestItemLessTotalOrder(t *testing.T) {
	a := Item{UT: 1, TxID: 1, SrcDC: 1}
	b := Item{UT: 1, TxID: 1, SrcDC: 2}
	c := Item{UT: 1, TxID: 2, SrcDC: 0}
	d := Item{UT: 2, TxID: 0, SrcDC: 0}
	ordered := []Item{a, b, c, d}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			want := i < j
			if got := ordered[i].Less(ordered[j]); got != want {
				t.Errorf("Less(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		KindStartTxReq, KindStartTxResp, KindReadReq, KindReadResp,
		KindCommitReq, KindCommitResp, KindFinishTx, KindReadSliceReq,
		KindReadSliceResp, KindPrepareReq, KindPrepareResp, KindCohortCommit,
		KindReplicate, KindReplicateBatch, KindHeartbeat, KindGSTUp, KindGSTRoot,
		KindUSTDown, KindHello, KindError, KindReplStatus,
	}
	seen := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

// TestKindValuesStable pins the wire values around the retired kinds: the
// live kinds after them keep the numbers they have always had.
func TestKindValuesStable(t *testing.T) {
	for k, want := range map[Kind]Kind{
		KindCohortCommit: 12, KindReplicate: 13, KindHeartbeat: 14, KindGSTUp: 15,
		KindReplStatus: 28, KindHello: 29,
	} {
		if k != want {
			t.Errorf("%v = %d, want %d", k, k, want)
		}
	}
}

func TestErrorRespErr(t *testing.T) {
	err := ErrorResp{Code: CodeUnknownTx, Msg: "nope"}.Err()
	if err == nil {
		t.Fatal("Err returned nil")
	}
}

func BenchmarkEncodeReadSliceResp(b *testing.B) {
	items := make([]Item, 16)
	for i := range items {
		items[i] = Item{Key: "key-123456", Value: []byte("12345678"),
			UT: hlc.New(uint64(i), 0), TxID: TxID(i), SrcDC: 1}
	}
	msg := ReadSliceResp{Items: items}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], msg)
	}
}

func BenchmarkDecodeReadSliceResp(b *testing.B) {
	items := make([]Item, 16)
	for i := range items {
		items[i] = Item{Key: "key-123456", Value: []byte("12345678"),
			UT: hlc.New(uint64(i), 0), TxID: TxID(i), SrcDC: 1}
	}
	data := Encode(ReadSliceResp{Items: items})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTxIDCoordinator(t *testing.T) {
	id := NewTxID(3, 12, 99)
	if id.DC() != 3 || id.Partition() != 12 {
		t.Fatalf("TxID fields = dc %d p %d, want 3/12", id.DC(), id.Partition())
	}
	if got := id.Coordinator(); got != topology.ServerID(3, 12) {
		t.Fatalf("Coordinator() = %v, want s3.12", got)
	}
}
