package wire

import (
	"fmt"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/racedetect"
)

// TestAllocBudgetDecode pins what decoding a message allocates, and that it
// does not grow with the number of keys: the message boxed into its
// interface, one slice per list, one string copy for every key of the
// message and one byte arena for every value.
func TestAllocBudgetDecode(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	check := func(name string, msg Message, budget float64) {
		t.Helper()
		data := Encode(msg)
		got := testing.AllocsPerRun(200, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Fatalf("decoding %s allocates %.1f, budget %.0f", name, got, budget)
		}
	}
	for _, n := range []int{1, 19, 64} {
		keys := make([]string, n)
		items := make([]Item, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("user:%06d", i)
			items[i] = Item{Key: keys[i], Value: []byte("value-0123456789"),
				UT: hlc.New(uint64(1000+i), 0), TxID: NewTxID(1, 2, uint64(i)), SrcDC: 1}
		}
		check(fmt.Sprintf("a ReadReq of %d keys", n),
			ReadReq{TxID: NewTxID(0, 1, 7), ClientUST: hlc.New(900, 0), Keys: keys}, 3)
		check(fmt.Sprintf("a ReadResp of %d items", n),
			ReadResp{TxID: NewTxID(0, 1, 7), Snapshot: hlc.New(990, 0), Items: items}, 4)
	}
	check("a CommitReq of one write", CommitReq{TxID: NewTxID(0, 1, 7), HWT: hlc.New(950, 0),
		Writes: []KV{{Key: "user:000001", Value: []byte("v")}}}, 4)
}

// TestAllocBudgetEncode pins that encoding a message into a buffer with room
// and sizing it allocate nothing: the codec, and the message copy it walks,
// stay on the stack.
func TestAllocBudgetEncode(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	buf := make([]byte, 0, 1<<12)
	for _, msg := range sampleMessages() {
		if got := testing.AllocsPerRun(100, func() { buf = AppendMessage(buf[:0], msg) }); got != 0 {
			t.Errorf("encoding %v allocates %.1f, budget 0", msg.Kind(), got)
		}
		if got := testing.AllocsPerRun(100, func() { _ = ApproxSize(msg) }); got != 0 {
			t.Errorf("sizing %v allocates %.1f, budget 0", msg.Kind(), got)
		}
	}
}
