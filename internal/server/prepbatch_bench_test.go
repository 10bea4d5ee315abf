package server

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/clock"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// BenchmarkPrepareBatcher measures the group-commit prepare path under
// concurrent coordinators and reports the pump-handoff cost directly:
// wakeups/op is how many times the pump goroutine took the batcher lock to
// drain the queue, per prepare. With the drain-all handoff the pump takes
// the whole queue in one lock acquisition and slices it locally, so under
// load wakeups/op sits well below one (the old per-send re-acquire paid one
// handoff per prepareBatchMax prepares at best, one per prepare at worst).
func BenchmarkPrepareBatcher(b *testing.B) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	// A real latency-bearing link keeps calls in flight long enough for the
	// burst to queue behind them, which is the regime batching exists for.
	net := transport.NewMemNet(transport.Uniform{
		IntraDC: 50 * time.Microsecond,
		InterDC: 200 * time.Microsecond,
	})
	defer func() { _ = net.Close() }()

	newServer := func(id topology.NodeID) *Server {
		srv, err := New(Config{ID: id, Topology: topo, Mode: ModeNonBlocking,
			Clock: clock.NewManual(1000)})
		if err != nil {
			b.Fatal(err)
		}
		ep, err := net.Register(id, srv.Peer())
		if err != nil {
			b.Fatal(err)
		}
		srv.Peer().Attach(ep)
		b.Cleanup(srv.Stop)
		return srv
	}

	coord := newServer(topology.ServerID(0, 0))
	cohortID := topology.ServerID(1, 1)
	newServer(cohortID)

	key := keysOn(b, topo, topology.PartitionID(1), 1)[0]
	writes := []wire.KV{{Key: key, Value: []byte("12345678")}}
	var txSeq atomic.Uint64

	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := wire.NewTxID(coord.self.DC, coord.self.Partition(), txSeq.Add(1))
			resp, err := coord.prepBatch.call(cohortID, wire.PrepareReq{
				TxID: id, HT: coord.clock.Now(), Writes: writes,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := resp.(wire.PrepareResp); !ok {
				b.Fatalf("unexpected response %#v", resp)
			}
		}
	})
	b.StopTimer()

	m := coord.Metrics()
	b.ReportMetric(float64(m.PrepPumpWakeups)/float64(b.N), "wakeups/op")
	b.ReportMetric(float64(m.PrepareBatchedReqs)/float64(b.N), "batched/op")
}
