package paris

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

func TestConfigValidationTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", DefaultConfig(), true},
		{"zero DCs", Config{NumPartitions: 4}, false},
		{"zero partitions", Config{NumDCs: 3}, false},
		{"rf above DCs", Config{NumDCs: 3, NumPartitions: 6, ReplicationFactor: 4}, false},
		{"fewer partitions than DCs", Config{NumDCs: 5, NumPartitions: 3, ReplicationFactor: 2}, false},
		{"full replication", Config{NumDCs: 3, NumPartitions: 3, ReplicationFactor: 3,
			Latency: transport.ZeroLatency{}}, true},
		{"single DC", Config{NumDCs: 1, NumPartitions: 2, ReplicationFactor: 1,
			Latency: transport.ZeroLatency{}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cluster, err := NewCluster(c.cfg)
			if (err == nil) != c.ok {
				t.Fatalf("NewCluster err=%v, want ok=%v", err, c.ok)
			}
			if cluster != nil {
				_ = cluster.Close()
			}
		})
	}
}

// TestConfigRejectsRetiredKnobs: the deprecated ΔG and ΔU fields take only 0
// or ApplyInterval, and a negative PreparedTTL no longer switches the reaper
// off.
func TestConfigRejectsRetiredKnobs(t *testing.T) {
	const dR = 2 * time.Millisecond
	cases := []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"intervals at ΔR", func(c *Config) { c.GossipInterval, c.USTInterval = dR, dR }, true},
		{"gossip interval above ΔR", func(c *Config) { c.GossipInterval = 10 * dR }, false},
		{"UST interval above ΔR", func(c *Config) { c.USTInterval = 10 * dR }, false},
		{"negative prepared TTL", func(c *Config) { c.PreparedTTL = -time.Second }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{NumDCs: 2, NumPartitions: 2, ReplicationFactor: 1,
				Latency: transport.ZeroLatency{}, ApplyInterval: dR}
			c.set(&cfg)
			cluster, err := NewCluster(cfg)
			if (err == nil) != c.ok {
				t.Fatalf("NewCluster err=%v, want ok=%v", err, c.ok)
			}
			if cluster != nil {
				_ = cluster.Close()
			}
		})
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	c := newTestCluster(t, Config{NumDCs: 3, NumPartitions: 6})
	cfg := c.Config()
	if cfg.ReplicationFactor != 2 {
		t.Errorf("default RF = %d", cfg.ReplicationFactor)
	}
	if cfg.Mode != ModeNonBlocking {
		t.Errorf("default mode = %v", cfg.Mode)
	}
	if cfg.Latency == nil || cfg.ApplyInterval <= 0 {
		t.Error("defaults not filled in")
	}
}

func TestNewSessionAtValidation(t *testing.T) {
	c := newTestCluster(t, testConfig())
	topo := c.Topology()

	// A (dc, partition) pair that is not replicated must be rejected.
	found := false
	for p := 0; p < topo.NumPartitions() && !found; p++ {
		for dc := 0; dc < topo.NumDCs(); dc++ {
			if !topo.IsReplicatedAt(topology.PartitionID(p), DCID(dc)) {
				if _, err := c.NewSessionAt(DCID(dc), p); err == nil {
					t.Fatal("session created at non-replica DC")
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("test topology is fully replicated; cannot exercise rejection")
	}

	// A valid explicit coordinator works.
	p0 := topo.PartitionsAt(0)[0]
	s, err := c.NewSessionAt(0, int(p0))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestSessionAfterClusterClose(t *testing.T) {
	c, err := NewCluster(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession(0); err == nil {
		t.Fatal("session created on closed cluster")
	}
	// Double close is fine.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAbandonsOnError(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	boom := errors.New("boom")
	if _, err := s.Update(ctx, func(tx *Tx) error {
		_ = tx.Write("doomed", []byte("x"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Update err = %v", err)
	}
	// The write never happened.
	vals, err := s.Get(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vals["doomed"]; ok {
		t.Fatal("abandoned write became visible")
	}
	// Session still usable.
	if _, err := s.Put(ctx, map[string][]byte{"ok": []byte("y")}); err != nil {
		t.Fatal(err)
	}
}

func TestViewPropagatesError(t *testing.T) {
	c := newTestCluster(t, testConfig())
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boom := errors.New("boom")
	if err := s.View(context.Background(), func(*Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("View err = %v", err)
	}
}

func TestWaitForUSTTimesOut(t *testing.T) {
	c := newTestCluster(t, testConfig())
	// A timestamp far in the future cannot be reached within the timeout.
	future := Timestamp(1) << 62
	start := time.Now()
	if c.WaitForUST(future, 50*time.Millisecond) {
		t.Fatal("reached an unreachable UST")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("WaitForUST ignored its timeout")
	}
}

func TestServerAccessors(t *testing.T) {
	c := newTestCluster(t, testConfig())
	topo := c.Topology()
	p0 := topo.PartitionsAt(0)[0]
	srv := c.Server(0, int(p0))
	if srv == nil {
		t.Fatal("Server returned nil for hosted partition")
	}
	if srv.Mode() != ModeNonBlocking {
		t.Fatalf("mode = %v", srv.Mode())
	}
	// A DC that does not replicate the partition returns nil.
	for dc := 0; dc < topo.NumDCs(); dc++ {
		if !topo.IsReplicatedAt(p0, DCID(dc)) {
			if c.Server(DCID(dc), int(p0)) != nil {
				t.Fatal("Server returned a replica that should not exist")
			}
			break
		}
	}
	if got := len(c.Servers()); got != topo.NumPartitions()*topo.ReplicationFactor() {
		t.Fatalf("Servers() = %d", got)
	}
}

func TestSessionStats(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put(ctx, map[string][]byte{"stat": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "stat"); err != nil {
		t.Fatal(err)
	}
	st := s.Client().Stats()
	if st.TxStarted != 2 || st.TxCommitted != 1 || st.TxReadOnly != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.KeysRead != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClusterMetricsAggregate(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Put(ctx, map[string][]byte{"m": []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	var started, committed, prepares uint64
	for _, srv := range c.Servers() {
		m := srv.Metrics()
		started += m.TxStarted
		committed += m.TxCommitted
		prepares += m.Prepares
	}
	if started != 5 || committed != 5 {
		t.Fatalf("cluster counters: started=%d committed=%d", started, committed)
	}
	if prepares < 5 {
		t.Fatalf("prepares = %d", prepares)
	}
}

func TestPreferNearestReplicaRouting(t *testing.T) {
	// With nearest-replica selection, remote reads land on the replica with
	// the lowest RTT; verify by comparing per-server slice counters against
	// the geographically expected target.
	cfg := Config{
		NumDCs:               5,
		NumPartitions:        10,
		ReplicationFactor:    2,
		LatencyScale:         0.01,
		ApplyInterval:        time.Millisecond,
		PreferNearestReplica: true,
	}
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	topo := c.Topology()

	// Find a partition not replicated in DC 0.
	var remote topology.PartitionID = -1
	for p := 0; p < topo.NumPartitions(); p++ {
		if !topo.IsReplicatedAt(topology.PartitionID(p), 0) {
			remote = topology.PartitionID(p)
			break
		}
	}
	if remote < 0 {
		t.Fatal("no remote partition found")
	}
	// Expected target: replica DC with the lowest RTT from DC 0 under the
	// default geography.
	geo, ok := c.Config().Latency.(*transport.GeoModel)
	if !ok {
		t.Fatal("default latency model not geographic")
	}
	var want DCID = -1
	for _, replica := range topo.ReplicaDCs(remote) {
		if want < 0 || geo.RTTBetween(0, replica) < geo.RTTBetween(0, want) {
			want = replica
		}
	}

	// A key on that partition.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("near-%d", i)
		if topo.PartitionOf(k) == remote {
			key = k
			break
		}
	}

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := c.Server(want, int(remote)).Metrics().SlicesServed
	if _, err := s.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	after := c.Server(want, int(remote)).Metrics().SlicesServed
	if after != before+1 {
		t.Fatalf("nearest replica served %d slices, want %d", after, before+1)
	}
}
