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
		gossipInt  = flag.Duration("gossip-interval", 5*time.Millisecond, "ΔG: push up the stabilization tree every ⌈ΔG/ΔR⌉-th round")
		ustInt     = flag.Duration("ust-interval", 5*time.Millisecond, "ΔU: roots compute the UST every ⌈ΔU/ΔR⌉-th round")
		gcInt      = flag.Duration("gc-interval", time.Second, "version GC cadence (0 disables)")
		batchItems = flag.Int("batch-max-items", 0,
			"max write items per replication batch (0 = default 1024, negative disables batching)")
		batchBytes = flag.Int("batch-max-bytes", 0,
			"max approximate payload bytes per replication batch (0 = default 1 MiB)")
		callTimeout = flag.Duration("call-timeout", 0,
			"coordinator→cohort round-trip bound (0 = default 60s)")
		preparedTTL = flag.Duration("prepared-ttl", 0,
			"reap prepared transactions with no commit/abort decision after this long (0 = default 2×call-timeout, negative disables)")
		prepBatchMax = flag.Int("prepare-batch-max", 0,
			"max concurrent prepares coalesced into one PrepareBatch per cohort (0 = default 32, negative disables)")
		applyWorkers = flag.Int("apply-workers", 0,
			"parallel store-apply goroutines per ΔR round (0 = default min(GOMAXPROCS, 8), 1 = serial)")
		connsPerPeer = flag.Int("conns-per-peer", 1,
			"outbound TCP connections (stripes) per peer; casts keep one FIFO stripe, requests spread by id")
		bandwidthBudget = flag.Int("bandwidth-budget", 0,
			"replication bandwidth budget per peer in bytes/second (0 disables flow control)")
		budgetBurst = flag.Int("budget-burst", 0,
			"flow-control token bucket burst in bytes (0 = budget/4, floored at 4 KiB)")
		flowHighWater = flag.Int("flow-high-water", 0,
			"per-destination send-queue byte bound before degrading to summary mode (0 = default 4 MiB)")
		flowLowWater = flag.Int("flow-low-water", 0,
			"queue depth below which a degraded destination resumes (0 = high-water/4)")
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
		BatchMaxItems:   *batchItems,
		BatchMaxBytes:   *batchBytes,
		GossipInterval:  *gossipInt,
		USTInterval:     *ustInt,
		GCInterval:      *gcInt,
		CallTimeout:     *callTimeout,
		PreparedTTL:     *preparedTTL,
		PrepareBatchMax: *prepBatchMax,
		ApplyWorkers:    *applyWorkers,
		BandwidthBudget: *bandwidthBudget,
		BudgetBurst:     *budgetBurst,
		FlowHighWater:   *flowHighWater,
		FlowLowWater:    *flowLowWater,
	})
	if err != nil {
		fatalf("%v", err)
	}

	node, err := transport.ListenTCPOpts(id, *listen, book, srv.Peer(),
		transport.TCPOptions{ConnsPerPeer: *connsPerPeer})
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
