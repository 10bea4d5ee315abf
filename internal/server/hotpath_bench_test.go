package server

import (
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// Micro-benchmarks for the client-operation hot path: StartTx snapshot
// assignment and coordinator reads, serial and under parallelism. The server's
// peer is never attached, so every measured operation is local work —
// contention and allocations on the coordinator itself, not network cost.

// keysOn returns n distinct keys that hash to partition p.
func keysOn(tb testing.TB, topo *topology.Topology, p topology.PartitionID, n int) []string {
	tb.Helper()
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := "hp" + strconv.Itoa(i)
		if topo.PartitionOf(k) == p {
			keys = append(keys, k)
		}
		if i > 1_000_000 {
			tb.Fatalf("could not find %d keys on partition %d", n, p)
		}
	}
	return keys
}

// hotpathServer builds a coordinator at (DC 0, partition 0) plus live sibling
// servers for the DC's other partitions on a shared zero-latency MemNet, so
// multi-partition reads fan out to real cohorts. Every local store holds
// versions for its partition's keys, with the UST lifted above them so
// snapshot reads see them. No background loops run: the benchmarks measure
// request handling only.
func hotpathServer(tb testing.TB) (*Server, *topology.Topology) {
	tb.Helper()
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net := transport.NewMemNet(transport.ZeroLatency{})
	tb.Cleanup(func() { _ = net.Close() })
	var coord *Server
	for _, p := range topo.PartitionsAt(0) {
		srv, err := New(Config{
			ID:       topology.ServerID(0, p),
			Topology: topo,
			Clock:    clockAt(1000),
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(srv.Stop)
		ep, err := net.Register(srv.ID(), srv.Peer())
		if err != nil {
			tb.Fatal(err)
		}
		srv.Peer().Attach(ep)
		for i, k := range keysOn(tb, topo, p, 16) {
			srv.Store().Apply(wire.Item{
				Key:   k,
				Value: []byte("12345678"),
				UT:    hlc.New(10, 0),
				TxID:  wire.TxID(int(p)*100 + i + 1),
			})
		}
		srv.observeUST(hlc.New(100, 0))
		if p == 0 {
			coord = srv
		}
	}
	return coord, topo
}

func BenchmarkHandleReadSinglePartition(b *testing.B) {
	srv, topo := hotpathServer(b)
	local := topo.PartitionsAt(0)
	keys := keysOn(b, topo, local[0], 4)
	start := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	req := wire.ReadReq{TxID: start.TxID, Keys: keys}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := srv.handleRead(req).(wire.ReadResp); !ok {
			b.Fatal("read failed")
		}
	}
}

func BenchmarkHandleReadMultiPartition(b *testing.B) {
	srv, topo := hotpathServer(b)
	local := topo.PartitionsAt(0)
	if len(local) < 2 {
		b.Skip("need two locally replicated partitions")
	}
	keys := append(keysOn(b, topo, local[0], 2), keysOn(b, topo, local[1], 2)...)
	start := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	req := wire.ReadReq{TxID: start.TxID, Keys: keys}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := srv.handleRead(req).(wire.ReadResp); !ok {
			b.Fatal("read failed")
		}
	}
}

func BenchmarkHandleStartTx(b *testing.B) {
	srv, _ := hotpathServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
		srv.handleFinishTx(wire.FinishTx{TxID: resp.TxID})
	}
}

// BenchmarkHandleStartTxParallel measures StartTx under client parallelism —
// the operation every transaction begins with, and the first casualty of a
// server-wide mutex.
func BenchmarkHandleStartTxParallel(b *testing.B) {
	srv, _ := hotpathServer(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
			srv.handleFinishTx(wire.FinishTx{TxID: resp.TxID})
		}
	})
}

// BenchmarkClientOpsParallel drives the full client-operation loop — StartTx,
// one single-partition read, FinishTx — from parallel goroutines, the
// closed-loop shape benchmark/'s mem-read workload measures end to end.
func BenchmarkClientOpsParallel(b *testing.B) {
	srv, topo := hotpathServer(b)
	local := topo.PartitionsAt(0)
	keys := keysOn(b, topo, local[0], 4)
	var failed atomic.Bool
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			start := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
			if _, ok := srv.handleRead(wire.ReadReq{TxID: start.TxID, Keys: keys}).(wire.ReadResp); !ok {
				failed.Store(true)
				return
			}
			srv.handleFinishTx(wire.FinishTx{TxID: start.TxID})
		}
	})
	if failed.Load() {
		b.Fatal("read failed")
	}
}
