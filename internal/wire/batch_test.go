package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
)

// makeBatch builds a ReplicateBatch with groups commit-timestamp groups of
// txnsPerGroup transactions of writesPerTxn writes each.
func makeBatch(groups, txnsPerGroup, writesPerTxn int) ReplicateBatch {
	b := ReplicateBatch{SrcDC: 2, UpTo: hlc.New(uint64(groups+1000), 0)}
	for g := 0; g < groups; g++ {
		grp := ReplicateGroup{CT: hlc.New(uint64(1000+g), uint16(g))}
		for t := 0; t < txnsPerGroup; t++ {
			tx := TxUpdates{TxID: NewTxID(2, 7, uint64(g*txnsPerGroup+t)), SrcDC: 2}
			for w := 0; w < writesPerTxn; w++ {
				tx.Writes = append(tx.Writes, KV{
					Key:   "key-0123456789",
					Value: []byte("value-0123456789abcdef"),
				})
			}
			grp.Txns = append(grp.Txns, tx)
		}
		b.Groups = append(b.Groups, grp)
	}
	return b
}

func TestReplicateBatchRoundTrip(t *testing.T) {
	cases := map[string]ReplicateBatch{
		"empty-heartbeat": {SrcDC: 1, UpTo: hlc.New(99, 3)},
		"single":          makeBatch(1, 1, 1),
		"single-empty-tx": {SrcDC: 0, UpTo: 5, Groups: []ReplicateGroup{
			{CT: 4, Txns: []TxUpdates{{TxID: 8, SrcDC: 0}}},
		}},
		"many-groups": makeBatch(64, 4, 3),
		"max-size":    makeBatch(16, 32, 8), // 4096 items, ~160 KiB encoded
	}
	for name, msg := range cases {
		data := Encode(msg)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("%s: round trip mismatch:\n sent %#v\n got  %#v", name, msg, got)
		}
	}
}

func TestReplicateBatchRejectsTruncation(t *testing.T) {
	data := Encode(makeBatch(3, 2, 2))
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("Decode accepted truncated ReplicateBatch at %d/%d bytes", cut, len(data))
		}
	}
}

func TestReplicateBatchItems(t *testing.T) {
	if got := makeBatch(3, 4, 5).Items(); got != 60 {
		t.Fatalf("Items() = %d, want 60", got)
	}
	if got := (ReplicateBatch{}).Items(); got != 0 {
		t.Fatalf("empty Items() = %d, want 0", got)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	b := GetBuffer()
	*b = AppendMessage(*b, ReplicateBatch{SrcDC: 1, UpTo: 2})
	if len(*b) == 0 {
		t.Fatal("AppendMessage wrote nothing")
	}
	PutBuffer(b)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Fatal("pooled buffer not reset to zero length")
	}
	PutBuffer(b2)
	PutBuffer(nil) // must not panic
}

func TestBufferPoolDropsOversized(t *testing.T) {
	big := make([]byte, 0, maxPooledCap+1)
	PutBuffer(&big) // silently dropped; nothing to assert beyond no panic
}

func FuzzDecode(f *testing.F) {
	// Each sample seeds the corpus three times: its encoding and that
	// encoding's two nearest invalid neighbours, one byte short and one byte
	// long, so the fuzzer starts on both sides of every decoder's boundary.
	for _, msg := range sampleMessages() {
		data := Encode(msg)
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(data, 0))
	}
	// The last encodings of the retired prepare batch kinds, seeded the same
	// way, so the fuzzer also starts from bytes an older peer may still send.
	for _, golden := range retiredGolden {
		data, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(data, 0))
	}
	// A PrepareReq as encoded before it carried Sole: one byte short of a
	// well-formed body, which the decoder rejects as truncated.
	if data, err := hex.DecodeString(preSolePrepareReq); err != nil {
		f.Fatal(err)
	} else {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindReplicateBatch)})
	// A retired kind with what used to be a well-formed Heartbeat body.
	f.Add(binary.LittleEndian.AppendUint64([]byte{byte(KindHeartbeat), 1}, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Whatever the decoder accepts is the encoding of what it decodes to,
		// and decodes back to the same value: the codec is a bijection on its
		// accepted inputs. Decoding a copy leaves the engine's input
		// untouched.
		in := bytes.Clone(data)
		msg, err := Decode(in)
		if err != nil {
			return
		}
		if again := Encode(msg); !bytes.Equal(again, data) {
			t.Fatalf("%v: accepted %x, which re-encodes as %x", msg.Kind(), data, again)
		}
		// The size model bounds every frame the decoder accepts: flow
		// control charges a message before it is encoded.
		if size := ApproxSize(msg); size < len(data) {
			t.Fatalf("%v: ApproxSize %d below its %d-byte frame %x", msg.Kind(), size, len(data), data)
		}
		first := Encode(msg)
		msg2, err := Decode(first)
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v", msg.Kind(), err)
		}
		if !equalMessages(msg, msg2) {
			t.Fatalf("re-encode changed message:\n first %#v\n second %#v", msg, msg2)
		}
		// The message must not alias its input: scribbling over the input,
		// as the transport's reused frame buffer does, changes nothing.
		for i := range in {
			in[i] = 0xFF
		}
		if again := Encode(msg); !bytes.Equal(first, again) {
			t.Fatalf("%v changed when its input was overwritten:\n before %x\n after  %x", msg.Kind(), first, again)
		}
	})
}

// FuzzReplicateBatch drives the structured direction: it builds a
// ReplicateBatch from fuzzed scalars, encodes it, decodes the frame, and
// requires value equality. FuzzDecode starts from raw
// bytes; this starts from messages, so the two meet in the middle of the codec
// and together cover both decode-of-garbage and encode-of-anything.
func FuzzReplicateBatch(f *testing.F) {
	f.Add(int32(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), []byte{}, []byte{})
	f.Add(int32(3), uint64(60), uint64(31), uint64(21), uint64(354_012_345_678), uint8(4), []byte("key"), []byte("value"))
	f.Add(int32(7), uint64(1<<40), uint64(999), uint64(1<<50), uint64(1<<64-1), uint8(17), []byte{0}, []byte{0xFF, 0})
	f.Fuzz(func(t *testing.T, srcDC int32, upTo, ct, txid, round uint64, n uint8, key, val []byte) {
		groups := int(n % 5)
		txnsPer := int(n%3) + 1
		msg := ReplicateBatch{
			SrcDC: topology.DCID(srcDC),
			Epoch: upTo ^ ct,
			Seq:   txid % 1000,
			UpTo:  hlc.Timestamp(upTo),
			Round: round,
		}
		for g := 0; g < groups; g++ {
			grp := ReplicateGroup{CT: hlc.Timestamp(ct + uint64(g))}
			for x := 0; x < txnsPer; x++ {
				tx := TxUpdates{
					TxID:  TxID(txid + uint64(g*txnsPer+x)),
					SrcDC: topology.DCID(srcDC),
				}
				if len(key) > 0 {
					tx.Writes = []KV{{Key: string(key), Value: val}}
				}
				grp.Txns = append(grp.Txns, tx)
			}
			msg.Groups = append(msg.Groups, grp)
		}
		data := Encode(msg)
		got, err := Decode(data)
		if srcDC < 0 {
			// A negative id encodes above MaxInt32, which no decoder accepts.
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode of a batch from DC %d = %v, want ErrMalformed", srcDC, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of encoded batch failed: %v", err)
		}
		if !equalMessages(msg, got) {
			t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", msg, got)
		}
		// The size model must stay within shouting distance of the real
		// frame: flow-control token charging and MemNet's bandwidth model
		// both consume it, and a wildly-off estimate starves or floods links.
		checkApproxSize(t, msg, len(data))
	})
}

func BenchmarkAppendReplicateBatch(b *testing.B) {
	msg := makeBatch(8, 4, 2)
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], msg)
	}
}

// BenchmarkEncodeReplicateBatchFresh is the pre-refactor shape: a fresh
// buffer per message. Compare against BenchmarkAppendReplicateBatch (pooled)
// for the allocs/op delta on the encode path.
func BenchmarkEncodeReplicateBatchFresh(b *testing.B) {
	msg := makeBatch(8, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(msg)
	}
}

func BenchmarkAppendReplicateBatchPooled(b *testing.B) {
	msg := makeBatch(8, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetBuffer()
		*buf = AppendMessage(*buf, msg)
		PutBuffer(buf)
	}
}

func BenchmarkDecodeReplicateBatch(b *testing.B) {
	data := Encode(makeBatch(8, 4, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
