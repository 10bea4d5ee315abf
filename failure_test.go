package paris

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/workload"
)

// These tests exercise the failure-handling subsystem end-to-end on a live
// cluster with injected link faults: the 2PC abort protocol, read/prepare
// failover to alternate replicas, and the consistency invariants under
// transient replica outages.

// remotePartition returns a partition not replicated in dc, and a key on it.
func remotePartition(t *testing.T, c *Cluster, dc DCID) (int, string) {
	t.Helper()
	topo := c.Topology()
	for i := 0; ; i++ {
		k := fmt.Sprintf("remote-%d-%d", dc, i)
		p := topo.PartitionOf(k)
		if !topo.IsReplicatedAt(p, dc) {
			return int(p), k
		}
		if i > 100000 {
			t.Fatal("no remote partition found")
		}
	}
}

// localKey returns a key on a partition replicated in dc.
func localKey(t *testing.T, c *Cluster, dc DCID) string {
	t.Helper()
	topo := c.Topology()
	for i := 0; ; i++ {
		k := fmt.Sprintf("local-%d-%d", dc, i)
		if topo.IsReplicatedAt(topo.PartitionOf(k), dc) {
			return k
		}
		if i > 100000 {
			t.Fatal("no local key found")
		}
	}
}

// TestCohortFailureAbortsAndUSTResumes is the regression test for the
// system-wide UST freeze after a cohort failure. A multi-partition commit
// loses both replicas of one partition mid-2PC (their prepare responses are
// blackholed, exactly a one-way packet-loss fault): the cohorts that did
// receive the prepare park it, the coordinator times out. Before the abort
// protocol existed, those prepared entries lived forever, each pinning its
// partition's version clock at pt−1, freezing the partition's version-vector
// entry and with it the UST — the global minimum — in every data center,
// permanently, from one transient fault. With the abort protocol the
// coordinator releases every cohort it touched, the prepared queues drain,
// and the UST resumes within a few gossip rounds — while the faulty links are
// still down.
func TestCohortFailureAbortsAndUSTResumes(t *testing.T) {
	cfg := testConfig()
	cfg.CallTimeout = 150 * time.Millisecond
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	// Coordinator s0.coord, chosen away from DC roots so the blackholed
	// links carry only coordinator RPC traffic, never stabilization gossip.
	coordPartition := 0
	for _, p := range c.Topology().PartitionsAt(0)[1:] {
		coordPartition = int(p)
		break
	}
	s, err := c.NewSessionAt(0, coordPartition)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	coord := topology.ServerID(0, topology.PartitionID(coordPartition))

	remoteP, kRemote := remotePartition(t, c, 0)
	kLocal := localKey(t, c, 0)

	// Seed both keys and reach a stable state.
	ct0, err := s.Put(ctx, map[string][]byte{kLocal: []byte("old"), kRemote: []byte("old")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct0, 5*time.Second) {
		t.Fatal("UST stalled before fault injection")
	}

	// Blackhole the prepare responses from BOTH replicas of the remote
	// partition, so prepare failover is exhausted and the commit must abort.
	// The requests still arrive — the cohorts genuinely park the prepare,
	// which is exactly the state that used to wedge the cluster.
	replicas := c.Topology().ReplicaDCs(topology.PartitionID(remoteP))
	for _, dc := range replicas {
		c.Net().SetLinkFault(topology.ServerID(dc, topology.PartitionID(remoteP)), coord, transport.FaultBlackhole)
	}

	tx, err := s.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(kLocal, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(kRemote, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(ctx); err == nil {
		t.Fatal("commit with both remote replicas unreachable must fail")
	}
	tx.Abandon()

	// (a) the commit errored; (b) every prepared queue drains — the abort
	// casts travel coordinator→cohort, which the fault does not touch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pending := 0
		for _, srv := range c.Servers() {
			pending += srv.PendingPrepared()
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prepared queues did not drain after abort: %d entries", pending)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// (c) the UST resumes advancing on all servers — past wall-clock "now",
	// which is far beyond anything reachable while a prepare was pinned —
	// with the faulty links still down.
	if !c.WaitForUST(c.Server(0, coordPartition).ClockNow(), 10*time.Second) {
		t.Fatal("UST did not resume after the abort")
	}

	// Abort/abort-release events are visible in the metrics.
	if got := c.Server(0, coordPartition).Metrics().TxAborted; got == 0 {
		t.Fatal("coordinator recorded no aborted transaction")
	}
	var cohortAborts uint64
	for _, srv := range c.Servers() {
		cohortAborts += srv.Metrics().CohortAborts
	}
	if cohortAborts == 0 {
		t.Fatal("no cohort released a prepared entry via AbortTx")
	}

	// (d) atomicity: the aborted transaction is applied nowhere — neither
	// key moved, no mixed old/new pair.
	for _, dc := range replicas {
		c.Net().SetLinkFault(topology.ServerID(dc, topology.PartitionID(remoteP)), coord, transport.FaultNone)
	}
	r, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vals, err := r.Get(ctx, kLocal, kRemote)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[kLocal]) != "old" || string(vals[kRemote]) != "old" {
		t.Fatalf("aborted transaction leaked writes: %q/%q, want old/old",
			vals[kLocal], vals[kRemote])
	}
}

// TestPrepareAndReadFailover: with the preferred remote replica's link down
// (connection refused), both the 2PC prepare and snapshot reads retry on the
// partition's alternate replica instead of failing the transaction.
func TestPrepareAndReadFailover(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	// Away from the DC root, so the faulted link never carries gossip.
	coordPartition := int(c.Topology().PartitionsAt(0)[1])
	coord := topology.ServerID(0, topology.PartitionID(coordPartition))
	s, err := c.NewSessionAt(0, coordPartition)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	remoteP, kRemote := remotePartition(t, c, 0)
	// The coordinator's preferred replica of the remote partition (its
	// selector is seeded with its own DC, matching server.Config defaults).
	preferred := topology.ServerID(
		topology.NewPreferredSelector(c.Topology(), int32(coord.DC)).TargetDC(coord.DC, topology.PartitionID(remoteP)),
		topology.PartitionID(remoteP))
	c.Net().SetLinkFault(coord, preferred, transport.FaultError)

	ct, err := s.Put(ctx, map[string][]byte{kRemote: []byte("v")})
	if err != nil {
		t.Fatalf("commit with downed preferred replica must fail over, got %v", err)
	}
	if got := c.Server(0, coordPartition).Metrics().PrepareFailovers; got == 0 {
		t.Fatal("prepare did not fail over")
	}
	if !c.WaitForUST(ct, 10*time.Second) {
		t.Fatal("UST stalled after failover commit")
	}

	// A fresh session (empty write cache) reads the key through the same
	// coordinator: the slice read must fail over too and see the write.
	r, err := c.NewSessionAt(0, coordPartition)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vals, err := r.Get(ctx, kRemote)
	if err != nil {
		t.Fatalf("read with downed preferred replica must fail over, got %v", err)
	}
	if string(vals[kRemote]) != "v" {
		t.Fatalf("failover read = %q, want v", vals[kRemote])
	}
	if got := c.Server(0, coordPartition).Metrics().ReadFailovers; got == 0 {
		t.Fatal("read did not fail over")
	}
}

// TestBPRClientSkipsWriteCache: the private write cache is a PaRiS-only
// mechanism; in BPR the server blocks reads until writes are installed, so
// the client must not accumulate cache entries across transactions.
func TestBPRClientSkipsWriteCache(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeBlocking
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("bpr-cache-%d", i)
		if _, err := s.Put(ctx, map[string][]byte{k: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		if n := s.Client().CacheSize(); n != 0 {
			t.Fatalf("BPR client cached %d entries after commit %d, want 0", n, i)
		}
	}
	// Read-after-write still holds — via the blocking read path, not the cache.
	vals, err := s.Get(ctx, "bpr-cache-4")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["bpr-cache-4"]) != "v" {
		t.Fatalf("BPR read-after-write = %q, want v", vals["bpr-cache-4"])
	}
	if s.Client().Stats().KeysFromWC != 0 {
		t.Fatal("BPR read served from the write cache")
	}
}

// TestCheckedWorkloadWithDownedReplica runs the recorded concurrent workload
// with one partition replica refusing all inbound traffic for the entire run:
// every operation that would have used it fails over to the partition's other
// replica, and the full TCC invariant suite (internal/check) must still hold.
func TestCheckedWorkloadWithDownedReplica(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)

	// Down a replica that is never a session coordinator (sessions pick the
	// first three partitions of each DC) and whose peer replica keeps its
	// inbound link, so replication from the victim still flows and the UST
	// keeps advancing. Inbound coordinator RPCs to the victim are refused
	// from the very start, so no 2PC can be in flight over the faulted links.
	local := c.Topology().PartitionsAt(1)
	victimPartition := local[len(local)-1]
	victim := topology.ServerID(1, victimPartition)
	peers := map[topology.NodeID]bool{}
	for _, p := range c.Topology().PeerReplicas(victimPartition, 1) {
		peers[p] = true
	}
	for _, node := range c.Topology().AllServers() {
		if node != victim && !peers[node] {
			c.Net().SetLinkFault(node, victim, transport.FaultError)
		}
	}

	mix := workload.Mix{ReadsPerTx: 6, WritesPerTx: 2, PartitionsPerTx: 3,
		LocalRatio: 0.8, Theta: 0.8, ValueSize: 8}
	h := runCheckedWorkload(t, c, mix, 9, 40, false)
	if h.Len() != 9*40 {
		t.Fatalf("recorded %d transactions, want %d", h.Len(), 9*40)
	}
	if vs := h.Check(); len(vs) != 0 {
		for i, v := range vs {
			if i > 10 {
				break
			}
			t.Error(v)
		}
		t.Fatalf("TCC violations with a downed replica: %d", len(vs))
	}

	var failovers uint64
	for _, srv := range c.Servers() {
		m := srv.Metrics()
		failovers += m.ReadFailovers + m.PrepareFailovers
	}
	if failovers == 0 {
		t.Fatal("workload never failed over despite the downed replica")
	}
}

// TestCrashServerFailsPendingCalls: crashing a coordinator whose remote read
// or remote prepare waits on blackholed replicas returns at once. Stop fails
// the server's pending calls before it waits for its request goroutines, so
// it sits out neither the call's CallTimeout nor its failover's, and the
// operation fails: a commit never returns a commit timestamp.
func TestCrashServerFailsPendingCalls(t *testing.T) {
	for _, tc := range []struct {
		name string
		// op runs the operation on key and describes how it went wrong, if
		// it did.
		op func(ctx context.Context, s *Session, key string) error
	}{
		{"read", func(ctx context.Context, s *Session, key string) error {
			if _, err := s.Get(ctx, key); err == nil {
				return errors.New("a read through a crashed coordinator succeeded")
			}
			return nil
		}},
		{"commit", func(ctx context.Context, s *Session, key string) error {
			ts, err := s.Put(ctx, map[string][]byte{key: []byte("v")})
			if err == nil || ts != 0 {
				return fmt.Errorf("commit through a crashed coordinator returned ts %v, err %v", ts, err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CallTimeout = 400 * time.Millisecond
			c := newTestCluster(t, cfg)
			p := c.Topology().PartitionsAt(0)[0]
			coord := topology.ServerID(0, p)
			s, err := c.NewSessionAt(0, int(p))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			remoteP, kRemote := remotePartition(t, c, 0)
			for _, dc := range c.Topology().ReplicaDCs(topology.PartitionID(remoteP)) {
				c.Net().SetLinkFault(coord, topology.ServerID(dc, topology.PartitionID(remoteP)), transport.FaultBlackhole)
			}

			done := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				done <- tc.op(ctx, s, kRemote)
			}()
			srv := c.Server(0, int(p))
			deadline := time.Now().Add(5 * time.Second)
			for srv.Peer().Pending() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("the remote %s never left the coordinator", tc.name)
				}
				time.Sleep(time.Millisecond)
			}

			start := time.Now()
			if err := c.CrashServer(coord); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took >= cfg.CallTimeout/4 {
				t.Fatalf("CrashServer took %v with a %s pending, want well under CallTimeout (%v)", took, tc.name, cfg.CallTimeout)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}
