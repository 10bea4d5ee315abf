package transport

import (
	"context"
	"testing"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// inlineEchoHandler replies on the delivery goroutine with no detour — the
// cheapest possible responder, so Peer.Call benchmarks measure the peer's own
// bookkeeping (pending map, response channel) rather than handler scheduling.
type inlineEchoHandler struct{}

func (inlineEchoHandler) HandleRequest(_ topology.NodeID, req wire.Message, reply func(wire.Message)) {
	if m, ok := req.(wire.StartTxReq); ok {
		reply(wire.StartTxResp{TxID: 1, Snapshot: m.ClientUST})
		return
	}
	reply(wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "unexpected"})
}

func (inlineEchoHandler) HandleCast(topology.NodeID, wire.Message) {}

func newBenchPeerPair(b testing.TB) (*Peer, topology.NodeID) {
	b.Helper()
	net := NewMemNet(ZeroLatency{})
	b.Cleanup(func() { _ = net.Close() })
	a, z := topology.ServerID(0, 0), topology.ServerID(1, 0)
	pA, pB := NewPeer(a, inlineEchoHandler{}), NewPeer(z, inlineEchoHandler{})
	epA, err := net.Register(a, pA)
	if err != nil {
		b.Fatal(err)
	}
	epB, err := net.Register(z, pB)
	if err != nil {
		b.Fatal(err)
	}
	pA.Attach(epA)
	pB.Attach(epB)
	b.Cleanup(func() { pA.Close(); pB.Close() })
	return pA, z
}

func BenchmarkPeerCall(b *testing.B) {
	pA, to := newBenchPeerPair(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pA.Call(ctx, to, wire.StartTxReq{ClientUST: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeerCallParallel(b *testing.B) {
	pA, to := newBenchPeerPair(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := pA.Call(ctx, to, wire.StartTxReq{ClientUST: 42}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
