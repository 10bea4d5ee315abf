package paris

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/transport"
)

// testConfig returns a small fast cluster for integration tests.
func testConfig() Config {
	return Config{
		NumDCs:            3,
		NumPartitions:     6,
		ReplicationFactor: 2,
		Latency:           transport.Uniform{IntraDC: 0, InterDC: 2 * time.Millisecond},
		ApplyInterval:     time.Millisecond,
	}
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClusterBootAndClose(t *testing.T) {
	c := newTestCluster(t, testConfig())
	if got := len(c.Servers()); got != 12 { // 6 partitions × RF 2
		t.Fatalf("servers = %d, want 12", got)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ct, err := s.Put(ctx, map[string][]byte{"hello": []byte("world")})
	if err != nil {
		t.Fatal(err)
	}
	if ct == 0 {
		t.Fatal("commit timestamp is zero")
	}

	// Read-your-writes: immediately visible in the same session (via the
	// write cache, before the UST catches up).
	vals, err := s.Get(ctx, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["hello"]) != "world" {
		t.Fatalf("read-your-write failed: %q", vals["hello"])
	}

	// Universally visible once the UST passes the commit timestamp.
	if !c.WaitForUST(ct, 5*time.Second) {
		t.Fatalf("UST never reached commit ts %v (min=%v)", ct, c.MinUST())
	}
	for dc := DCID(0); dc < 3; dc++ {
		other, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := other.Get(ctx, "hello")
		other.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(vals["hello"]) != "world" {
			t.Fatalf("DC %d does not see the write: %q", dc, vals["hello"])
		}
	}
}

func TestMultiKeyTransactionAcrossPartitions(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Write enough keys to touch several partitions.
	kvs := make(map[string][]byte)
	parts := make(map[int]bool)
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("multi-%d", i)
		kvs[k] = []byte{byte(i)}
		parts[c.PartitionOf(k)] = true
	}
	if len(parts) < 3 {
		t.Fatalf("test keys only touch %d partitions", len(parts))
	}
	ct, err := s.Put(ctx, kvs)
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct, 5*time.Second) {
		t.Fatal("UST stalled")
	}

	s2, err := c.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	vals, err := s2.Get(ctx, keys...)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range kvs {
		if string(vals[k]) != string(want) {
			t.Fatalf("key %q = %v, want %v", k, vals[k], want)
		}
	}
}

func TestUSTAdvances(t *testing.T) {
	c := newTestCluster(t, testConfig())
	before := c.MinUST()
	time.Sleep(200 * time.Millisecond)
	after := c.MinUST()
	if after <= before {
		t.Fatalf("UST did not advance: %v then %v", before, after)
	}
}

func TestPartialReplicationStorageCapacity(t *testing.T) {
	// §I: partial replication "increases the storage capacity" — each DC
	// stores only R/M of the dataset. Write the same dataset into a partial
	// (R=2) and a full (R=M) deployment and compare per-DC storage.
	writeAll := func(c *Cluster) Timestamp {
		t.Helper()
		ctx := context.Background()
		s, err := c.NewSession(0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var last Timestamp
		for i := 0; i < 60; i++ {
			ct, err := s.Put(ctx, map[string][]byte{fmt.Sprintf("cap-%d", i): []byte("v")})
			if err != nil {
				t.Fatal(err)
			}
			last = ct
		}
		return last
	}
	perDCKeys := func(c *Cluster) map[DCID]int {
		out := make(map[DCID]int)
		for _, srv := range c.Servers() {
			out[srv.ID().DC] += srv.Store().Keys()
		}
		return out
	}

	partialCfg := testConfig() // RF 2 of 3 DCs
	partial := newTestCluster(t, partialCfg)
	fullCfg := testConfig()
	fullCfg.ReplicationFactor = 3 // full replication baseline
	full := newTestCluster(t, fullCfg)

	ctP := writeAll(partial)
	ctF := writeAll(full)
	if !partial.WaitForUST(ctP, 10*time.Second) || !full.WaitForUST(ctF, 10*time.Second) {
		t.Fatal("UST stalled")
	}

	pKeys, fKeys := perDCKeys(partial), perDCKeys(full)
	for dc := DCID(0); dc < 3; dc++ {
		if pKeys[dc] == 0 || fKeys[dc] == 0 {
			t.Fatalf("DC %d stores nothing (partial=%d full=%d)", dc, pKeys[dc], fKeys[dc])
		}
		// Partial replication stores ≈ R/M = 2/3 of full replication's
		// per-DC footprint; allow slack for hash imbalance.
		ratio := float64(pKeys[dc]) / float64(fKeys[dc])
		if ratio > 0.85 {
			t.Fatalf("DC %d partial/full storage ratio %.2f, want ≈ 2/3", dc, ratio)
		}
	}
	// Both deployments hold the complete dataset system-wide.
	totalP, totalF := 0, 0
	for dc := DCID(0); dc < 3; dc++ {
		totalP += pKeys[dc]
		totalF += fKeys[dc]
	}
	if totalP != 60*2 || totalF != 60*3 {
		t.Fatalf("system-wide key copies: partial=%d (want 120), full=%d (want 180)", totalP, totalF)
	}
}
