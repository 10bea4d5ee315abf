package server

import (
	"strconv"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// Micro-benchmarks for the server's hot paths, independent of the network:
// the 2PC prepare/commit/apply pipeline and the snapshot read path. The
// server's peer is never attached, so replication casts fall away silently
// — these measure local work only.

func newBenchServer(b testing.TB) *Server {
	b.Helper()
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{
		ID:       topology.ServerID(0, 0),
		Topology: topo,
		Clock:    clockAt(1000),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Stop)
	return srv
}

func BenchmarkPrepareCommitApply(b *testing.B) {
	srv := newBenchServer(b)
	writes := []wire.KV{{Key: "bench-key", Value: []byte("12345678")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := wire.TxID(i + 1)
		resp := srv.handlePrepare(wire.PrepareReq{TxID: id, HT: 0, Writes: writes}).(wire.PrepareResp)
		srv.handleCohortCommit(wire.CohortCommit{TxID: id, CommitTS: resp.Proposed})
		if i%64 == 63 {
			srv.nextRound()
		}
	}
	b.StopTimer()
	srv.nextRound()
}

func BenchmarkReadSliceHot(b *testing.B) {
	srv := newBenchServer(b)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
		for v := 0; v < 4; v++ {
			srv.Store().Apply(wire.Item{
				Key:   keys[i],
				Value: []byte("12345678"),
				UT:    hlc.New(uint64(v+1), 0),
				TxID:  wire.TxID(i*4 + v),
			})
		}
	}
	req := wire.ReadSliceReq{Snapshot: hlc.New(10, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Keys = keys[i%1000 : i%1000+4]
		_ = srv.handleReadSlice(req)
	}
}

func BenchmarkStartFinishTx(b *testing.B) {
	srv := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
		srv.handleFinishTx(wire.FinishTx{TxID: resp.TxID})
	}
}

func BenchmarkReplicateReceive(b *testing.B) {
	srv := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := hlc.New(uint64(i+1), 0)
		srv.handleReplicateBatch(wire.ReplicateBatch{
			SrcDC: 1, Epoch: 1, Seq: uint64(i + 1), UpTo: ct,
			Groups: []wire.ReplicateGroup{{CT: ct, Txns: []wire.TxUpdates{{
				TxID:   wire.TxID(i + 1),
				SrcDC:  1,
				Writes: []wire.KV{{Key: "r" + strconv.Itoa(i%512), Value: []byte("12345678")}},
			}}}},
		})
	}
}

func BenchmarkGossipAggregation(b *testing.B) {
	srv := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := srv.stab.takeUp()
		_ = out
	}
}
