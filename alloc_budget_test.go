package paris

import (
	"context"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/transport"
)

// TestAllocBudgetSessionTx pins what a client-observed read+write
// transaction on its coordinator's partition allocates end to end over a
// zero-latency MemNet: Session, client, transport, coordinator and cohort,
// two messages each way. ΔR is an hour, so no round, gossip or GC runs while
// it is measured.
func TestAllocBudgetSessionTx(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 20
	cfg := DefaultConfig()
	cfg.NumDCs, cfg.NumPartitions, cfg.ReplicationFactor = 3, 6, 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = time.Hour
	cfg.GCInterval = 0
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()
	local := cluster.Topology().PartitionsAt(0)[0]
	sess, err := cluster.NewSessionAt(0, int(local))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	keys := benchKeysOn(cluster.Topology(), local, 2) // one read, one written
	val := []byte("12345678")
	ctx := context.Background()
	tx := func() {
		tx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(ctx, keys[0]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(keys[1], val); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	tx()
	if got := testing.AllocsPerRun(2000, tx); got > budget {
		t.Fatalf("a session read+write transaction allocates %.1f, budget %d", got, budget)
	}
}
