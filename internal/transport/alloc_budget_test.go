package transport

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TestAllocBudgetPeerCall pins what one Peer.Call round trip allocates on a
// zero-latency MemNet with a responder that replies inline: the reply
// closure Deliver hands the handler and the response boxed into its
// wire.Message. The response channel is pooled, a link queue reuses its
// array, and a bounded call draws its timer from a pool, so CallTimeout
// costs what Call does.
func TestAllocBudgetPeerCall(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 2
	pA, to := newBenchPeerPair(t)
	ctx := context.Background()
	for _, bound := range []time.Duration{0, time.Minute} {
		call := func() {
			if _, err := pA.CallTimeout(ctx, to, wire.StartTxReq{ClientUST: 42}, bound); err != nil {
				t.Fatal(err)
			}
		}
		call() // create the link, fill the pools
		if got := testing.AllocsPerRun(1000, call); got > budget {
			t.Fatalf("a call bounded by %v allocates %.1f per round trip, budget %d", bound, got, budget)
		}
	}
}

// readRespHandler answers every ReadReq inline with one fixed ReadResp.
type readRespHandler struct{ resp wire.Message }

func (h readRespHandler) HandleRequest(_ topology.NodeID, req wire.Message, reply func(wire.Message)) {
	if _, ok := req.(wire.ReadReq); ok {
		reply(h.resp)
		return
	}
	reply(wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "unexpected"})
}

func (readRespHandler) HandleCast(topology.NodeID, wire.Message) {}

// TestAllocBudgetTCPCall pins what one Peer.Call of a 19-key ReadReq,
// answered inline with a 19-item ReadResp, allocates over loopback TCP on
// both ends together. Both messages are boxed once, up front, so the budget
// counts the transport and the codec: the reply closure, 3 allocations to
// decode the request and 4 to decode the response, none of them per key;
// encode buffers are pooled and a connection's writer reuses its queue.
func TestAllocBudgetTCPCall(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 8
	keys := make([]string, 19)
	items := make([]wire.Item, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%06d", i)
		items[i] = wire.Item{Key: keys[i], Value: []byte("value-0123456789"),
			UT: hlc.New(uint64(1000+i), 0), TxID: wire.NewTxID(1, 2, uint64(i)), SrcDC: 1}
	}
	book := StaticBook{}
	_, server := startTCPNode(t, nodeB, readRespHandler{resp: wire.ReadResp{
		TxID: wire.NewTxID(0, 1, 7), Snapshot: hlc.New(990, 0), Items: items}}, book)
	book[nodeB] = server.ListenAddr()
	pA, client := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = client.ListenAddr()

	var req wire.Message = wire.ReadReq{TxID: wire.NewTxID(0, 1, 7), ClientUST: hlc.New(900, 0), Keys: keys}
	ctx := context.Background()
	call := func() {
		resp, err := pA.CallTimeout(ctx, nodeB, req, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(resp.(wire.ReadResp).Items); got != len(items) {
			t.Fatalf("response carries %d items, want %d", got, len(items))
		}
	}
	for range 10 {
		call() // dial, grow the frame buffers and queues, fill the pools
	}
	if got := testing.AllocsPerRun(500, call); got > budget {
		t.Fatalf("a 19-key read over TCP allocates %.1f per round trip, budget %d", got, budget)
	}
}
