// Command paris-server runs one PaRiS partition server over real TCP: the
// multi-process counterpart of the embedded cluster. Every server in the
// deployment is started with the same -peers file, which lists the address
// of each (DC, partition) replica:
//
//	# peers.txt — "dc partition host:port", one replica per line
//	0 0 10.0.0.1:7000
//	0 1 10.0.0.2:7000
//	1 0 10.0.1.1:7000
//	...
//
// Example, a 3-DC/3-partition/RF-2 deployment on one machine:
//
//	paris-server -dcs 3 -partitions 3 -rf 2 -dc 0 -partition 0 \
//	    -listen :7000 -peers peers.txt
//
// Clients connect with cmd/paris-client using the same peers file.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

func main() {
	var (
		dcs        = flag.Int("dcs", 3, "number of data centers (M)")
		partitions = flag.Int("partitions", 3, "number of partitions (N)")
		rf         = flag.Int("rf", 2, "replication factor (R)")
		dc         = flag.Int("dc", 0, "this server's data center id")
		partition  = flag.Int("partition", 0, "this server's partition id")
		listen     = flag.String("listen", ":7000", "listen address")
		peersFile  = flag.String("peers", "peers.txt", "peer address file")
		mode       = flag.String("mode", "paris", `visibility protocol: "paris" or "bpr"`)
		applyInt   = flag.Duration("apply-interval", 5*time.Millisecond, "ΔR, the round: apply, replicate and start the stabilization push at its wall-clock multiples (whole milliseconds)")
		gcInt      = flag.Duration("gc-interval", time.Second, "version GC every ⌈gc-interval/ΔR⌉-th round (0 disables)")
		batchBytes = flag.Int("batch-max-bytes", 0,
			"max approximate payload bytes per replication batch (0 = default 1 MiB)")
		callTimeout = flag.Duration("call-timeout", 0,
			"coordinator→cohort round-trip bound (0 = default 60s)")
		preparedTTL = flag.Duration("prepared-ttl", 0,
			"reap prepared transactions with no commit/abort decision after this long (0 = default 2×call-timeout)")
		bandwidthBudget = flag.Int("bandwidth-budget", 0,
			"replication bandwidth budget per peer in bytes/second (0 = unlimited)")
	)
	flag.Parse()

	topo, err := topology.New(*dcs, *partitions, *rf)
	if err != nil {
		fatalf("%v", err)
	}
	book, err := transport.LoadAddressBook(*peersFile)
	if err != nil {
		fatalf("loading peers: %v", err)
	}

	srvMode := server.ModeNonBlocking
	switch *mode {
	case "paris":
	case "bpr":
		srvMode = server.ModeBlocking
	default:
		fatalf("unknown mode %q", *mode)
	}

	id := topology.ServerID(topology.DCID(*dc), topology.PartitionID(*partition))
	srv, err := server.New(server.Config{
		ID:              id,
		Topology:        topo,
		Mode:            srvMode,
		ApplyInterval:   *applyInt,
		BatchMaxBytes:   *batchBytes,
		GCInterval:      *gcInt,
		CallTimeout:     *callTimeout,
		PreparedTTL:     *preparedTTL,
		BandwidthBudget: *bandwidthBudget,
	})
	if err != nil {
		fatalf("%v", err)
	}

	node, err := transport.ListenTCP(id, *listen, book, srv.Peer())
	if err != nil {
		fatalf("%v", err)
	}
	srv.Peer().Attach(node)
	srv.Start()
	fmt.Printf("paris-server %v (%s) listening on %s\n", id, srvMode, node.ListenAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	fmt.Println("shutting down")
	srv.Stop()
	if err := node.Close(); err != nil {
		fatalf("closing transport: %v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "paris-server: "+format+"\n", args...)
	os.Exit(1)
}
