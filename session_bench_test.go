package paris

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

// Client-observed benchmarks for the transaction hot path: what one session
// pays end-to-end — client bookkeeping, transport, coordinator, cohorts —
// for the operations every workload is made of. Zero network latency, so
// coordinator work dominates the numbers.

func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NumDCs = 3
	cfg.NumPartitions = 6
	cfg.ReplicationFactor = 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = 5 * time.Millisecond
	cluster, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = cluster.Close() })
	return cluster
}

// benchKeysOn returns n distinct keys hashing to partition p.
func benchKeysOn(topo *topology.Topology, p topology.PartitionID, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("hot%d", i)
		if topo.PartitionOf(k) == p {
			keys = append(keys, k)
		}
	}
	return keys
}

// benchSession opens a session whose coordinator is the first local
// partition of DC 0 and returns single- and two-partition key sets, seeded
// and universally stable.
func benchSession(b *testing.B, cluster *Cluster) (*Session, []string, []string) {
	b.Helper()
	topo := cluster.Topology()
	local := topo.PartitionsAt(0)
	sess, err := cluster.NewSessionAt(0, int(local[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sess.Close)
	single := benchKeysOn(topo, local[0], 4)
	multi := append(benchKeysOn(topo, local[0], 2), benchKeysOn(topo, local[1], 2)...)
	put := make(map[string][]byte)
	for _, k := range append(append([]string{}, single...), multi...) {
		put[k] = []byte("12345678")
	}
	ct, err := sess.Put(context.Background(), put)
	if err != nil {
		b.Fatal(err)
	}
	if !cluster.WaitForUST(ct, 10*time.Second) {
		b.Fatal("UST never covered the seed write")
	}
	return sess, single, multi
}

func benchReadLoop(b *testing.B, sess *Session, keys []string) {
	b.Helper()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Read(ctx, keys...); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(ctx); err != nil { // read-only: releases the context
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionReadSinglePartition(b *testing.B) {
	cluster := benchCluster(b)
	sess, single, _ := benchSession(b, cluster)
	benchReadLoop(b, sess, single)
}

func BenchmarkSessionReadMultiPartition(b *testing.B) {
	cluster := benchCluster(b)
	sess, _, multi := benchSession(b, cluster)
	benchReadLoop(b, sess, multi)
}

func BenchmarkSessionStartFinish(b *testing.B) {
	cluster := benchCluster(b)
	sess, _, _ := benchSession(b, cluster)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionUpdate(b *testing.B) {
	cluster := benchCluster(b)
	sess, single, _ := benchSession(b, cluster)
	ctx := context.Background()
	val := []byte("12345678")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(single[i%len(single)], val); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
