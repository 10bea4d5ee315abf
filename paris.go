// Package paris is a from-scratch Go implementation of PaRiS (Spirovska,
// Didona, Zwaenepoel — ICDCS 2019): Transactional Causal Consistency with
// partial replication and non-blocking parallel reads, built on the
// Universal Stable Time (UST) dependency-tracking protocol.
//
// A Cluster embeds a full multi-data-center deployment in one process: one
// goroutine-backed server per partition replica, connected by a simulated
// WAN whose latencies follow the paper's ten-region AWS geography. Sessions
// run interactive read-write transactions against it:
//
//	cluster, _ := paris.NewCluster(paris.DefaultConfig())
//	defer cluster.Close()
//	s, _ := cluster.NewSession(0) // a client in DC 0
//	defer s.Close()
//
//	_ = s.Update(ctx, func(tx *paris.Tx) error {
//		tx.Write("user:alice", []byte("hi"))
//		return nil
//	})
//
// The same servers also run over real TCP (cmd/paris-server) for
// multi-process deployments.
package paris

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/clock"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

// Timestamp re-exports the hybrid logical timestamp used for snapshots and
// commit times.
type Timestamp = hlc.Timestamp

// DCID identifies a data center.
type DCID = topology.DCID

// Cluster is an embedded multi-DC PaRiS deployment.
type Cluster struct {
	cfg  Config
	topo *topology.Topology
	net  *transport.MemNet

	resolvers *resolverTable

	// mkServer rebuilds a server for one node over an existing store and 2PC
	// log — the restart half of a crash/restart episode. It captures the
	// cluster-wide configuration so a restarted replica is indistinguishable
	// from the original except for its (lost) volatile stabilization state.
	mkServer func(id topology.NodeID, st *store.MVStore, rec *server.TwoPCExport, hold time.Duration) (*server.Server, error)

	mu        sync.Mutex
	servers   map[topology.NodeID]*server.Server
	crashed   map[topology.NodeID]*server.Server
	clocks    map[topology.NodeID]clock.Source
	skews     map[topology.NodeID]*clock.Skewed
	clientSeq map[topology.DCID]int32
	coordSeq  map[topology.DCID]int
	closed    bool
}

// NewCluster builds and starts a cluster: topology, simulated WAN, and one
// server per partition replica.
func NewCluster(cfg Config) (*Cluster, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	topo, err := topology.New(full.NumDCs, full.NumPartitions, full.ReplicationFactor)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       full,
		topo:      topo,
		net:       transport.NewMemNet(full.Latency),
		servers:   make(map[topology.NodeID]*server.Server),
		crashed:   make(map[topology.NodeID]*server.Server),
		clocks:    make(map[topology.NodeID]clock.Source),
		skews:     make(map[topology.NodeID]*clock.Skewed),
		clientSeq: make(map[topology.DCID]int32),
		coordSeq:  make(map[topology.DCID]int),
		resolvers: newResolverTable(full.Resolvers),
	}
	var selector topology.Selector
	if full.PreferNearestReplica {
		if geo, ok := full.Latency.(*transport.GeoModel); ok {
			selector = topology.NewDistanceSelector(topo, func(a, b topology.DCID) float64 {
				return float64(geo.RTTBetween(a, b))
			})
		}
	}
	rng := rand.New(rand.NewSource(full.Seed))
	base := clock.System{}
	for _, id := range topo.AllServers() {
		var src clock.Source = base
		if full.ClockSkew > 0 {
			skew := time.Duration(rng.Int63n(int64(2*full.ClockSkew))) - full.ClockSkew
			skewed := clock.NewSkewed(base, skew, 0)
			c.skews[id] = skewed
			src = skewed
		}
		c.clocks[id] = src
	}
	c.mkServer = func(id topology.NodeID, st *store.MVStore, rec *server.TwoPCExport, hold time.Duration) (*server.Server, error) {
		return server.New(server.Config{
			ID:               id,
			Topology:         topo,
			Mode:             full.Mode,
			Selector:         selector,
			Clock:            c.clocks[id],
			Store:            st,
			Recovered2PC:     rec,
			RecoveryHold:     hold,
			ApplyInterval:    full.ApplyInterval,
			BatchMaxItems:    full.BatchMaxItems,
			BatchMaxBytes:    full.BatchMaxBytes,
			BandwidthBudget:  full.BandwidthBudget,
			BudgetBurst:      full.BudgetBurst,
			FlowHighWater:    full.FlowHighWater,
			FlowLowWater:     full.FlowLowWater,
			GossipInterval:   full.GossipInterval,
			USTInterval:      full.USTInterval,
			GossipIdleMax:    full.GossipIdleMax,
			GCInterval:       full.GCInterval,
			TxContextTTL:     full.TxContextTTL,
			CallTimeout:      full.CallTimeout,
			PreparedTTL:      full.PreparedTTL,
			ApplyWorkers:     full.ApplyWorkers,
			VisibilitySample: full.VisibilitySample,
			ResolverFor:      c.resolvers.storeResolverFor,
		})
	}
	for _, id := range topo.AllServers() {
		srv, err := c.mkServer(id, nil, nil, 0)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		ep, err := c.net.Register(id, srv.Peer())
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		srv.Peer().Attach(ep)
		c.servers[id] = srv
	}
	for _, srv := range c.servers {
		srv.Start()
	}
	return c, nil
}

// Topology returns the cluster's deployment shape.
func (c *Cluster) Topology() *topology.Topology { return c.topo }

// Config returns the cluster's effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Net exposes the simulated network for fault injection (partitions) and
// message accounting.
func (c *Cluster) Net() *transport.MemNet { return c.net }

// Server returns the replica of partition p hosted in dc, or nil when dc
// does not replicate p (or the replica is currently crashed).
func (c *Cluster) Server(dc DCID, p int) *server.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[topology.ServerID(dc, topology.PartitionID(p))]
}

// Servers returns every live server in the cluster.
func (c *Cluster) Servers() []*server.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*server.Server, 0, len(c.servers))
	for _, s := range c.servers {
		out = append(out, s)
	}
	return out
}

// CrashServer models a process crash of one partition replica: the node
// vanishes from the network (in-flight messages toward it drop, new sends
// fail fast) and its server stops, losing all volatile stabilization and
// replication state. The multiversion store and the 2PC log (prepared
// entries, decision memory, tombstones) survive — together they stand in
// for the write-ahead log a real presumed-abort deployment replays on
// recovery; a prepare is durably logged before it is acknowledged, so a
// crash can never silently drop an acked slice of a committed transaction.
// RestartServer brings the node back.
func (c *Cluster) CrashServer(id topology.NodeID) error {
	c.mu.Lock()
	srv, ok := c.servers[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("paris: no live server %v", id)
	}
	delete(c.servers, id)
	c.crashed[id] = srv
	c.mu.Unlock()
	c.net.Deregister(id)
	srv.Stop()
	return nil
}

// RestartServer revives a crashed replica: a fresh server over the crashed
// instance's store and 2PC log rejoins the network and starts with a
// recovery hold of the given duration (see server.Config.RecoveryHold — the
// apply plane stays frozen, and with it this node's UST contribution, until
// coordinators have had time to re-deliver any commit decisions lost in the
// crash). Recovered prepared entries immediately query their coordinators'
// decision memory, so a CohortCommit that was in flight when the process
// died is recovered rather than lost (see server.TwoPCExport).
func (c *Cluster) RestartServer(id topology.NodeID, hold time.Duration) error {
	c.mu.Lock()
	old, ok := c.crashed[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("paris: server %v is not crashed", id)
	}
	delete(c.crashed, id)
	c.mu.Unlock()
	srv, err := c.mkServer(id, old.Store(), old.ExportTwoPC(), hold)
	if err != nil {
		return err
	}
	ep, err := c.net.Register(id, srv.Peer())
	if err != nil {
		return err
	}
	srv.Peer().Attach(ep)
	c.mu.Lock()
	c.servers[id] = srv
	c.mu.Unlock()
	srv.Start()
	return nil
}

// SetClockSkew re-points one server's physical-clock skew mid-run, modelling
// an NTP step or a drifting oscillator. It reports whether the node has a
// skewable clock — clocks are only skew-wrapped when Config.ClockSkew > 0.
func (c *Cluster) SetClockSkew(id topology.NodeID, skew time.Duration) bool {
	c.mu.Lock()
	sk, ok := c.skews[id]
	c.mu.Unlock()
	if ok {
		sk.SetSkew(skew)
	}
	return ok
}

// SetFlowBudget reconfigures every live server's replication bandwidth
// budget at runtime (no-op on servers without flow control). The nemesis
// harness uses it to open the throttle after healing a constrained link so
// a degraded replica's backlog drains quickly.
func (c *Cluster) SetFlowBudget(rate, burst int) {
	for _, s := range c.Servers() {
		s.SetFlowBudget(rate, burst)
	}
}

// MigrateSession moves a session to another data center: the session's
// causal state (stable snapshot, last commit time, private write cache)
// transfers into a fresh client homed in dc, and the old session closes.
// The migrated session keeps reading its own writes and their causal
// dependencies — the guarantees ride on the carried state, not on the
// original coordinator. Fails if a transaction is open.
func (c *Cluster) MigrateSession(s *Session, dc DCID) (*Session, error) {
	h, err := s.c.Export()
	if err != nil {
		return nil, err
	}
	ns, err := c.NewSession(dc)
	if err != nil {
		return nil, err
	}
	if err := ns.c.Import(h); err != nil {
		ns.Close()
		return nil, err
	}
	s.Close()
	return ns, nil
}

// Close stops every server and the network.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	servers := make([]*server.Server, 0, len(c.servers))
	for _, srv := range c.servers {
		servers = append(servers, srv)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, srv := range servers {
		wg.Add(1)
		go func(s *server.Server) {
			defer wg.Done()
			s.Stop()
		}(srv)
	}
	wg.Wait()
	return c.net.Close()
}

// NewSession opens a client session homed in dc. The coordinator is chosen
// round-robin among the partitions the DC hosts, emulating the paper's
// client placement (one client process per partition, collocated with its
// coordinator).
func (c *Cluster) NewSession(dc DCID) (*Session, error) {
	local := c.topo.PartitionsAt(dc)
	if len(local) == 0 {
		return nil, fmt.Errorf("paris: DC %d hosts no partitions", dc)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("paris: cluster closed")
	}
	seq := c.clientSeq[dc]
	c.clientSeq[dc] = seq + 1
	coord := local[c.coordSeq[dc]%len(local)]
	c.coordSeq[dc]++
	c.mu.Unlock()
	return c.newSessionAt(dc, seq, coord)
}

// NewSessionAt opens a session with an explicit coordinator partition.
func (c *Cluster) NewSessionAt(dc DCID, partition int) (*Session, error) {
	p := topology.PartitionID(partition)
	if !c.topo.IsReplicatedAt(p, dc) {
		return nil, fmt.Errorf("paris: DC %d does not replicate partition %d", dc, partition)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("paris: cluster closed")
	}
	seq := c.clientSeq[dc]
	c.clientSeq[dc] = seq + 1
	c.mu.Unlock()
	return c.newSessionAt(dc, seq, p)
}

func (c *Cluster) newSessionAt(dc DCID, seq int32, coord topology.PartitionID) (*Session, error) {
	return c.newSessionOpts(dc, seq, coord, false)
}

// newSessionOpts is the full-option session constructor; disableCache is a
// harness hook for the cache ablation (never disable the cache otherwise).
func (c *Cluster) newSessionOpts(dc DCID, seq int32, coord topology.PartitionID, disableCache bool) (*Session, error) {
	mode := client.ModeNonBlocking
	if c.cfg.Mode == ModeBlocking {
		mode = client.ModeBlocking
	}
	// The client budget must cover a coordinator round trip that itself
	// contains cohort calls: a commit spans a 2PC prepare (one CallTimeout to
	// a dead cohort), a failover retry, and the commit fan-out, so the client
	// deadline is a multiple of the per-cohort-call bound. Left unset, the
	// client's own 60s default applies — which is how client stalls used to
	// outlive a 400ms cluster timeout by two orders of magnitude.
	clientTimeout := 4 * c.cfg.CallTimeout
	cl, err := client.New(client.Config{
		ID:           topology.ClientID(dc, seq),
		Coordinator:  topology.ServerID(dc, coord),
		Mode:         mode,
		CallTimeout:  clientTimeout,
		DisableCache: disableCache,
		CacheBypass:  c.resolvers.cacheBypass,
	})
	if err != nil {
		return nil, err
	}
	ep, err := c.net.Register(cl.ID(), cl.Peer())
	if err != nil {
		return nil, err
	}
	cl.Peer().Attach(ep)
	return &Session{c: cl, ep: ep}, nil
}

// PartitionOf exposes the key→partition hash.
func (c *Cluster) PartitionOf(key string) int { return int(c.topo.PartitionOf(key)) }

// MinUST returns the smallest UST across all servers — the stable snapshot
// guaranteed visible everywhere.
func (c *Cluster) MinUST() Timestamp {
	low := hlc.MaxTimestamp
	for _, s := range c.Servers() {
		if ust := s.UST(); ust < low {
			low = ust
		}
	}
	return low
}

// WaitForUST blocks until every server's UST reaches ts or the timeout
// expires; it reports whether the target was reached. Tests use it to wait
// for writes to become universally visible.
func (c *Cluster) WaitForUST(ts Timestamp, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if c.MinUST() >= ts {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
