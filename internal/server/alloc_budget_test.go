package server

import (
	"testing"

	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TestAllocBudgetLocalReadCommit pins what the coordinator allocates for a
// transaction that stays on its own partition: a ReadReq that starts it and
// a CommitReq with one write, both through HandleRequest as a client's would
// arrive, with no round running and no network. Each request costs its
// request goroutine; the commit prepares on the calling goroutine with no
// grouping map.
func TestAllocBudgetLocalReadCommit(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 16
	srv := newBenchServer(t)
	key := keysOn(t, srv.cfg.Topology, srv.self.Partition(), 1)[0]
	from := topology.ClientID(0, 0)
	read := wire.ReadReq{Keys: []string{key}}
	writes := []wire.KV{{Key: key, Value: []byte("12345678")}}
	resp := make(chan wire.Message, 1)
	reply := func(m wire.Message) { resp <- m }
	tx := func() {
		srv.HandleRequest(from, read, reply)
		r, ok := (<-resp).(wire.ReadResp)
		if !ok {
			t.Fatalf("read answered %#v", r)
		}
		srv.HandleRequest(from, wire.CommitReq{TxID: r.TxID, Writes: writes}, reply)
		if c, ok := (<-resp).(wire.CommitResp); !ok {
			t.Fatalf("commit answered %#v", c)
		}
	}
	tx()
	if got := testing.AllocsPerRun(2000, tx); got > budget {
		t.Fatalf("a local read+commit allocates %.1f, budget %d", got, budget)
	}
}
