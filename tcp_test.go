package paris

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

// TestTCPDeploymentEndToEnd boots a complete 3-DC deployment over real TCP
// sockets — the cmd/paris-server + cmd/paris-client path — and runs
// transactions against it, proving the wire codec, framing and FIFO
// assumptions hold outside the in-memory simulator.
func TestTCPDeploymentEndToEnd(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}

	// The book is mutated while servers run (clients join with ephemeral
	// addresses after startup), so it must be the concurrency-safe variant.
	book := transport.NewSyncBook()
	var (
		servers []*server.Server
		nodes   []*transport.TCPNode
	)
	t.Cleanup(func() {
		for _, s := range servers {
			s.Stop()
		}
		for _, n := range nodes {
			_ = n.Close()
		}
	})
	for _, id := range topo.AllServers() {
		srv, err := server.New(server.Config{
			ID:            id,
			Topology:      topo,
			ApplyInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := transport.ListenTCP(id, "127.0.0.1:0", book, srv.Peer())
		if err != nil {
			t.Fatal(err)
		}
		srv.Peer().Attach(node)
		book.Set(id, node.ListenAddr())
		servers = append(servers, srv)
		nodes = append(nodes, node)
	}
	for _, srv := range servers {
		srv.Start()
	}

	// A TCP client homed in DC 0 with partition 0 as coordinator.
	newTCPClient := func(idx int32, dc topology.DCID, coord topology.PartitionID) *client.Client {
		cl, err := client.New(client.Config{
			ID:          topology.ClientID(dc, idx),
			Coordinator: topology.ServerID(dc, coord),
			CallTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cnode, err := transport.ListenTCP(cl.ID(), "127.0.0.1:0", book, cl.Peer())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cnode.Close() })
		cl.Peer().Attach(cnode)
		book.Set(cl.ID(), cnode.ListenAddr())
		return cl
	}

	ctx := context.Background()
	alice := newTCPClient(0, 0, 0)

	// Write a batch of keys spanning partitions.
	if err := alice.Start(ctx); err != nil {
		t.Fatal(err)
	}
	kvs := map[string]string{}
	for i := 0; i < 9; i++ {
		k := fmt.Sprintf("tcp-%d", i)
		kvs[k] = fmt.Sprintf("v%d", i)
		if err := alice.Write(k, []byte(kvs[k])); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := alice.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ct == 0 {
		t.Fatal("zero commit timestamp")
	}

	// Read-your-writes over TCP.
	if err := alice.Start(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err := alice.Read(ctx, "tcp-0", "tcp-5")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["tcp-0"]) != "v0" || string(vals["tcp-5"]) != "v5" {
		t.Fatalf("read-your-writes over TCP failed: %v", vals)
	}
	if _, err := alice.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Wait until the UST passes the commit, then read from another DC.
	deadline := time.Now().Add(10 * time.Second)
	for {
		low := servers[0].UST()
		for _, s := range servers {
			if u := s.UST(); u < low {
				low = u
			}
		}
		if low >= ct {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("UST stalled below commit ts over TCP (min=%v ct=%v)", low, ct)
		}
		time.Sleep(2 * time.Millisecond)
	}

	bob := newTCPClient(0, 1, topo.PartitionsAt(1)[0])
	if err := bob.Start(ctx); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	vals, err = bob.Read(ctx, keys...)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range kvs {
		if string(vals[k]) != want {
			t.Fatalf("remote DC read %q = %q, want %q", k, vals[k], want)
		}
	}
	if _, err := bob.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
