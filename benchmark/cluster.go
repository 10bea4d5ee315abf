package main

import (
	"context"
	"fmt"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// txn is an open transaction: *paris.Tx on MemNet, *client.Client itself on
// TCP, where there is no Session to wrap it.
type txn interface {
	Read(ctx context.Context, keys ...string) (map[string][]byte, error)
	Write(key string, value []byte) error
	Commit(ctx context.Context) (hlc.Timestamp, error)
	Abandon()
}

// session is one interactive caller. client exposes the protocol client for
// its counters and, in the traced pass, the read-set it observed.
type session interface {
	begin(ctx context.Context) (txn, error)
	client() *client.Client
	close()
}

type memSession struct{ s *paris.Session }

func (m memSession) begin(ctx context.Context) (txn, error) { return m.s.Begin(ctx) }
func (m memSession) client() *client.Client                 { return m.s.Client() }
func (m memSession) close()                                 { m.s.Close() }

type tcpSession struct {
	c    *client.Client
	node *transport.TCPNode
}

func (t tcpSession) begin(ctx context.Context) (txn, error) {
	if err := t.c.Start(ctx); err != nil {
		return nil, err
	}
	return t.c, nil
}
func (t tcpSession) client() *client.Client { return t.c }
func (t tcpSession) close() {
	t.c.Close()
	_ = t.node.Close()
}

// netCounters is a snapshot of the transport's public send counters, summed
// over every node of the deployment.
type netCounters struct {
	sent        uint64
	batches     uint64
	batchedEnvs uint64
	byKind      map[wire.Kind]uint64
}

// msgCounter is the counter surface MemNet and TCPNode share.
type msgCounter interface {
	MessagesSent() uint64
	BatchesSent() uint64
	BatchedEnvelopes() uint64
	MessagesByKind() map[wire.Kind]uint64
}

// deployment is a running 3×6×2 cluster on either transport.
type deployment interface {
	topology() *topology.Topology
	servers() []*server.Server
	// newSession opens a session homed in dc and coordinated by partition p.
	newSession(dc topology.DCID, p topology.PartitionID) (session, error)
	// counters lists every live node's counters (one MemNet, or each TCP node).
	counters() []msgCounter
	close()
}

func messagesSent(d deployment) uint64 {
	var n uint64
	for _, c := range d.counters() {
		n += c.MessagesSent()
	}
	return n
}

func snapshotNet(d deployment) netCounters {
	out := netCounters{byKind: make(map[wire.Kind]uint64)}
	for _, c := range d.counters() {
		out.sent += c.MessagesSent()
		out.batches += c.BatchesSent()
		out.batchedEnvs += c.BatchedEnvelopes()
		for k, v := range c.MessagesByKind() {
			out.byKind[k] += v
		}
	}
	return out
}

// minUST is the snapshot every server has made stable: a commit is
// universally visible once it is covered.
func minUST(servers []*server.Server) (low, high hlc.Timestamp) {
	low = hlc.MaxTimestamp
	for _, s := range servers {
		ust := s.UST()
		low, high = min(low, ust), max(high, ust)
	}
	return low, high
}

type memDeployment struct {
	c    *paris.Cluster
	srvs []*server.Server
}

func newMemDeployment(w workload) (deployment, error) {
	var latency transport.LatencyModel = transport.ZeroLatency{}
	if w.wan {
		// Stated, not left at zero: with instant delivery latency is
		// processor time only and cross-DC round trips would not show.
		latency = transport.Uniform{IntraDC: 0, InterDC: wanOneWay}
	}
	c, err := paris.NewCluster(paris.Config{
		NumDCs:            numDCs,
		NumPartitions:     numPartitions,
		ReplicationFactor: replication,
		Mode:              paris.ModeNonBlocking,
		Latency:           latency,
		ApplyInterval:     stabilization,
		GossipInterval:    stabilization,
		USTInterval:       stabilization,
		GCInterval:        gcInterval,
	})
	if err != nil {
		return nil, err
	}
	return &memDeployment{c: c, srvs: c.Servers()}, nil
}

func (m *memDeployment) topology() *topology.Topology { return m.c.Topology() }
func (m *memDeployment) servers() []*server.Server    { return m.srvs }
func (m *memDeployment) counters() []msgCounter       { return []msgCounter{m.c.Net()} }
func (m *memDeployment) close()                       { _ = m.c.Close() }
func (m *memDeployment) newSession(dc topology.DCID, p topology.PartitionID) (session, error) {
	s, err := m.c.NewSessionAt(dc, int(p))
	if err != nil {
		return nil, err
	}
	return memSession{s}, nil
}

// tcpDeployment is the same cluster as memDeployment with every server and
// client on its own loopback TCPNode — the shape cmd/paris-server deploys —
// so the wire codec, framing and sockets carry every message.
type tcpDeployment struct {
	topo    *topology.Topology
	book    *transport.SyncBook
	srvs    []*server.Server
	nodes   []*transport.TCPNode
	clients []*transport.TCPNode
	nextID  int32
}

func newTCPDeployment() (deployment, error) {
	topo, err := topology.New(numDCs, numPartitions, replication)
	if err != nil {
		return nil, err
	}
	d := &tcpDeployment{topo: topo, book: transport.NewSyncBook()}
	for _, id := range topo.AllServers() {
		srv, err := server.New(server.Config{
			ID:             id,
			Topology:       topo,
			Mode:           server.ModeNonBlocking,
			ApplyInterval:  stabilization,
			GossipInterval: stabilization,
			USTInterval:    stabilization,
			GCInterval:     gcInterval,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.srvs = append(d.srvs, srv)
		node, err := transport.ListenTCPOpts(id, "127.0.0.1:0", d.book, srv.Peer(), transport.TCPOptions{})
		if err != nil {
			d.close()
			return nil, err
		}
		srv.Peer().Attach(node)
		d.book.Set(id, node.ListenAddr())
		d.nodes = append(d.nodes, node)
	}
	for _, srv := range d.srvs {
		srv.Start()
	}
	return d, nil
}

func (d *tcpDeployment) topology() *topology.Topology { return d.topo }
func (d *tcpDeployment) servers() []*server.Server    { return d.srvs }

func (d *tcpDeployment) counters() []msgCounter {
	out := make([]msgCounter, 0, len(d.nodes)+len(d.clients))
	for _, n := range d.nodes {
		out = append(out, n)
	}
	for _, n := range d.clients {
		out = append(out, n)
	}
	return out
}

func (d *tcpDeployment) close() {
	for _, s := range d.srvs {
		s.Stop()
	}
	for _, n := range d.nodes {
		_ = n.Close()
	}
}

func (d *tcpDeployment) newSession(dc topology.DCID, p topology.PartitionID) (session, error) {
	if !d.topo.IsReplicatedAt(p, dc) {
		return nil, fmt.Errorf("DC %d does not replicate partition %d", dc, p)
	}
	cl, err := client.New(client.Config{
		ID:          topology.ClientID(dc, d.nextID),
		Coordinator: topology.ServerID(dc, p),
		Mode:        client.ModeNonBlocking,
	})
	if err != nil {
		return nil, err
	}
	d.nextID++
	node, err := transport.ListenTCPOpts(cl.ID(), "127.0.0.1:0", d.book, cl.Peer(), transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	cl.Peer().Attach(node)
	d.book.Set(cl.ID(), node.ListenAddr())
	// A closed session's node stays listed: its counters are final, and the
	// preload traffic it carried belongs to the deployment's totals.
	d.clients = append(d.clients, node)
	return tcpSession{c: cl, node: node}, nil
}

func newDeployment(w workload) (deployment, error) {
	if w.tcp {
		return newTCPDeployment()
	}
	return newMemDeployment(w)
}
