package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
	"github.com/paris-kv/paris/internal/workload"
)

// This file measures the client-operation hot path after PR 5's
// contention-free overhaul: sharded coordinator state, lock-free UST
// snapshots and the single-partition read fast path. Two arms — the
// in-memory transport and a loopback TCP deployment — each run the same
// closed loop at 1 and at SaturationThreads clients per DC, so the headline
// number is how throughput scales with client parallelism; micro passes
// report allocs/op on the paths the PR pooled.

// HotpathComparison is the outcome of the hotpath experiment.
type HotpathComparison struct {
	// MemNet1/MemNetN are the in-memory-transport load points at 1 and N
	// threads per DC; TCP1/TCPN are the loopback-TCP equivalents.
	MemNet1, MemNetN Result
	TCP1, TCPN       Result
	// ScalingMemNet/ScalingTCP are ops/s at N threads ÷ ops/s at 1 thread —
	// the contention headline (a global-mutex hot path pins this near 1).
	ScalingMemNet float64
	ScalingTCP    float64
	// AllocsPerTx is heap allocations per committed transaction across the
	// N-thread MemNet run (whole process: client, coordinator, cohorts,
	// replication — measured via runtime.MemStats).
	AllocsPerTx float64
	// ReadSingleAllocs/ReadMultiAllocs/StartTxAllocs are allocs/op for one
	// client-observed operation end-to-end over MemNet: a snapshot read of a
	// 4-key single-partition set, the same spread over two partitions, and a
	// Begin→Commit with nothing in between (a start/finish round trip until
	// transactions started with their first operation; local since).
	ReadSingleAllocs float64
	ReadMultiAllocs  float64
	StartTxAllocs    float64
}

// seedBaseline records the same measurements taken at the pre-PR5 tree
// (global Server.mu, map-grouped fan-out, per-message decode buffers) on the
// development machine — the "before" column of BENCH_PR5.json and the README
// "Performance" table. The seed_read/seed_start entries ran the exact loop
// measureMicroAllocs runs (session over a zero-latency MemNet), so they are
// directly comparable to this report's read_single/read_multi/start_tx
// entries; the seed_handle/seed_peer/seed_store entries are the
// coordinator-internal go-test benchmarks.
var seedBaseline = map[string]float64{
	"seed_read_single_allocs_per_op": 48,
	"seed_read_single_ns_per_op":     13309,
	"seed_read_multi_allocs_per_op":  65,
	"seed_read_multi_ns_per_op":      19681,
	"seed_start_tx_allocs_per_op":    16,
	"seed_start_tx_ns_per_op":        4282,

	"seed_handle_read_single_allocs_per_op": 13,
	"seed_handle_read_single_ns_per_op":     3013,
	"seed_handle_read_multi_allocs_per_op":  30,
	"seed_handle_read_multi_ns_per_op":      11169,
	"seed_peer_call_allocs_per_op":          6,
	"seed_store_read_during_gc_ns_per_op":   2847,
}

// hotMix is the closed-loop workload of the scaling arms: the 95:5 r:w ratio
// of the paper's default, but single-partition transactions — the common
// case under a sharded keyspace and exactly the shape the fast path serves.
var hotMix = workload.Mix{
	ReadsPerTx: 19, WritesPerTx: 1, PartitionsPerTx: 1,
	LocalRatio: 0.95, Theta: 0.99, ValueSize: 8,
}

// hotpathCluster builds the MemNet arm: zero network latency (the metric is
// coordinator work, not wire time) and the paper's 5 ms stabilization
// cadence.
func hotpathCluster(o Options) (*paris.Cluster, error) {
	cfg := paris.DefaultConfig()
	cfg.NumDCs = 3
	cfg.NumPartitions = 6
	cfg.ReplicationFactor = 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = 5 * time.Millisecond
	cfg.GossipInterval = 5 * time.Millisecond
	cfg.USTInterval = 5 * time.Millisecond
	cfg.BatchMaxBytes = o.BatchMaxBytes
	return paris.NewCluster(cfg)
}

// Hotpath runs the experiment: closed-loop scaling on MemNet and loopback
// TCP, then the micro allocation passes.
func Hotpath(o Options) (HotpathComparison, error) {
	o = o.withDefaults()
	var cmp HotpathComparison

	runMem := func(threads int, countAllocs bool) (Result, float64, error) {
		cluster, err := hotpathCluster(o)
		if err != nil {
			return Result{}, 0, err
		}
		defer func() { _ = cluster.Close() }()
		var before runtime.MemStats
		if countAllocs {
			runtime.ReadMemStats(&before)
		}
		res, err := Run(RunConfig{
			Cluster:          cluster,
			Mix:              hotMix,
			ThreadsPerDC:     threads,
			Duration:         o.Duration,
			Warmup:           o.Warmup,
			KeysPerPartition: o.KeysPerPartition,
		})
		if err != nil || !countAllocs || res.Committed == 0 {
			return res, 0, err
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		// Whole-process allocations (warmup traffic included) over measured
		// commits: an upper bound on the per-transaction allocation cost.
		return res, float64(after.Mallocs-before.Mallocs) / float64(res.Committed), nil
	}

	var err error
	if cmp.MemNet1, _, err = runMem(1, false); err != nil {
		return cmp, err
	}
	if cmp.MemNetN, cmp.AllocsPerTx, err = runMem(o.SaturationThreads, true); err != nil {
		return cmp, err
	}
	if cmp.MemNet1.ThroughputTx > 0 {
		cmp.ScalingMemNet = cmp.MemNetN.ThroughputTx / cmp.MemNet1.ThroughputTx
	}

	if cmp.TCP1, err = runTCPLoad(o, 1, 0); err != nil {
		return cmp, err
	}
	if cmp.TCPN, err = runTCPLoad(o, o.SaturationThreads, 0); err != nil {
		return cmp, err
	}
	if cmp.TCP1.ThroughputTx > 0 {
		cmp.ScalingTCP = cmp.TCPN.ThroughputTx / cmp.TCP1.ThroughputTx
	}

	if err := cmp.measureMicroAllocs(o); err != nil {
		return cmp, err
	}

	o.printf("# Hotpath — closed-loop scaling with client parallelism\n")
	o.printf("%-10s %-8s %-10s %-10s %-10s\n", "transport", "threads", "ktx/s", "p50-lat", "p99-lat")
	for _, row := range []struct {
		name string
		r    Result
	}{
		{"memnet", cmp.MemNet1}, {"memnet", cmp.MemNetN},
		{"tcp", cmp.TCP1}, {"tcp", cmp.TCPN},
	} {
		o.printf("%-10s %-8d %-10.1f %-10v %-10v\n", row.name, row.r.Threads,
			row.r.ThroughputTx/1000,
			row.r.Latency.Percentile(0.50).Round(10*time.Microsecond),
			row.r.Latency.Percentile(0.99).Round(10*time.Microsecond))
	}
	o.printf("scaling: memnet %.2fx, tcp %.2fx (ops/s at %dx threads vs 1)\n",
		cmp.ScalingMemNet, cmp.ScalingTCP, o.SaturationThreads)
	o.printf("allocs/tx (whole process, memnet): %.0f\n", cmp.AllocsPerTx)
	o.printf("client-observed allocs/op: read-1p %.1f, read-2p %.1f, start/finish %.1f\n\n",
		cmp.ReadSingleAllocs, cmp.ReadMultiAllocs, cmp.StartTxAllocs)
	return cmp, nil
}

// measureMicroAllocs reports client-observed allocs/op for the paths PR 5
// optimized, against a dedicated single-client zero-latency cluster.
func (cmp *HotpathComparison) measureMicroAllocs(o Options) error {
	cluster, err := hotpathCluster(o)
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()
	topo := cluster.Topology()
	ctx := context.Background()

	// The session's coordinator is partition local[0] of DC 0; keys on that
	// partition take the coordinator-local fast path end-to-end.
	local := topo.PartitionsAt(0)
	sess, err := cluster.NewSessionAt(0, int(local[0]))
	if err != nil {
		return err
	}
	defer sess.Close()

	singleKeys := keysOnPartition(topo, local[0], 4)
	multiKeys := append(keysOnPartition(topo, local[0], 2), keysOnPartition(topo, local[1], 2)...)

	// Seed the keys and wait for universal stability so reads see them.
	put := make(map[string][]byte, len(singleKeys)+len(multiKeys))
	for _, k := range append(append([]string{}, singleKeys...), multiKeys...) {
		put[k] = []byte("12345678")
	}
	ct, err := sess.Put(ctx, put)
	if err != nil {
		return err
	}
	if !cluster.WaitForUST(ct, 10*time.Second) {
		return fmt.Errorf("bench: hotpath UST never covered the seed write")
	}

	readAllocs := func(keys []string) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx, err := sess.Begin(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Read(ctx, keys...); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(ctx); err != nil { // read-only: FinishTx
					b.Fatal(err)
				}
			}
		})
		return float64(res.AllocsPerOp())
	}
	cmp.ReadSingleAllocs = readAllocs(singleKeys)
	cmp.ReadMultiAllocs = readAllocs(multiKeys)
	startRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx, err := sess.Begin(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	cmp.StartTxAllocs = float64(startRes.AllocsPerOp())
	return nil
}

// keysOnPartition returns n distinct keys hashing to partition p.
func keysOnPartition(topo *topology.Topology, p topology.PartitionID, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("hot%d", i)
		if topo.PartitionOf(k) == p {
			keys = append(keys, k)
		}
	}
	return keys
}

// Report converts the comparison into the machine-readable form tracked
// across PRs (BENCH_PR5.json), including the recorded seed baseline as the
// "before" column.
func (c HotpathComparison) Report(name string) *Report {
	summary := map[string]float64{
		"scaling_memnet":            c.ScalingMemNet,
		"scaling_tcp":               c.ScalingTCP,
		"allocs_per_tx":             c.AllocsPerTx,
		"read_single_allocs_per_op": c.ReadSingleAllocs,
		"read_multi_allocs_per_op":  c.ReadMultiAllocs,
		"start_tx_allocs_per_op":    c.StartTxAllocs,
	}
	for k, v := range seedBaseline {
		summary[k] = v
	}
	return &Report{
		Name: name,
		Desc: "client-operation hot path: closed-loop scaling with parallelism (memnet + tcp) and allocs/op after the sharded-coordinator overhaul; seed_* entries are the pre-overhaul baseline",
		Rows: []ReportRow{
			RowFromResult("memnet-1", c.MemNet1),
			RowFromResult(fmt.Sprintf("memnet-%d", c.MemNetN.Threads), c.MemNetN),
			RowFromResult("tcp-1", c.TCP1),
			RowFromResult(fmt.Sprintf("tcp-%d", c.TCPN.Threads), c.TCPN),
		},
		Summary: summary,
	}
}

// --- loopback TCP arm ---

// tcpCluster is a hand-built multi-process-shaped deployment in one process:
// every server listens on a real localhost socket, exactly like
// cmd/paris-server, so the arm exercises the wire codec, framing, the pooled
// decode buffers and the pooled call channels.
type tcpCluster struct {
	topo    *topology.Topology
	book    *transport.SyncBook
	servers []*server.Server
	nodes   []*transport.TCPNode

	// clients tracks live client-side TCP nodes so messageCounters can sum
	// the whole deployment's traffic the way MemNet's central counters do.
	mu      sync.Mutex
	clients []*transport.TCPNode
}

// tcpApplyInterval is the loopback-TCP deployment's round (ΔR).
const tcpApplyInterval = 5 * time.Millisecond

func newTCPCluster(o Options, visSample int) (*tcpCluster, error) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		return nil, err
	}
	tc := &tcpCluster{topo: topo, book: transport.NewSyncBook()}
	for _, id := range topo.AllServers() {
		srv, err := server.New(server.Config{
			ID:               id,
			Topology:         topo,
			ApplyInterval:    tcpApplyInterval,
			GossipInterval:   5 * time.Millisecond,
			USTInterval:      5 * time.Millisecond,
			VisibilitySample: visSample,
		})
		if err != nil {
			tc.close()
			return nil, err
		}
		node, err := transport.ListenTCPOpts(id, "127.0.0.1:0", tc.book, srv.Peer(),
			transport.TCPOptions{ConnsPerPeer: o.ConnsPerPeer})
		if err != nil {
			tc.close()
			return nil, err
		}
		srv.Peer().Attach(node)
		tc.book.Set(id, node.ListenAddr())
		tc.servers = append(tc.servers, srv)
		tc.nodes = append(tc.nodes, node)
	}
	for _, srv := range tc.servers {
		srv.Start()
	}
	return tc, nil
}

func (tc *tcpCluster) close() {
	for _, s := range tc.servers {
		s.Stop()
	}
	for _, n := range tc.nodes {
		_ = n.Close()
	}
}

// newClient opens a TCP client session homed in dc, coordinated by the
// seq-th local partition (round-robin, mirroring paris.Cluster.NewSession).
func (tc *tcpCluster) newClient(dc topology.DCID, seq int32) (*client.Client, *transport.TCPNode, error) {
	local := tc.topo.PartitionsAt(dc)
	coord := local[int(seq)%len(local)]
	cl, err := client.New(client.Config{
		ID:          topology.ClientID(dc, seq),
		Coordinator: topology.ServerID(dc, coord),
	})
	if err != nil {
		return nil, nil, err
	}
	node, err := transport.ListenTCP(cl.ID(), "127.0.0.1:0", tc.book, cl.Peer())
	if err != nil {
		return nil, nil, err
	}
	cl.Peer().Attach(node)
	tc.book.Set(cl.ID(), node.ListenAddr())
	tc.mu.Lock()
	tc.clients = append(tc.clients, node)
	tc.mu.Unlock()
	return cl, node, nil
}

// messageCounters sums sent-envelope counts across every node of the
// deployment — servers and live clients — mirroring harness.messageCounters
// for MemNet clusters, so TCP rows report msgs/op too.
func (tc *tcpCluster) messageCounters() (msgs, repl uint64) {
	tc.mu.Lock()
	nodes := make([]*transport.TCPNode, 0, len(tc.nodes)+len(tc.clients))
	nodes = append(nodes, tc.nodes...)
	nodes = append(nodes, tc.clients...)
	tc.mu.Unlock()
	for _, n := range nodes {
		msgs += n.MessagesSent()
		byKind := n.MessagesByKind()
		repl += byKind[wire.KindReplicate] + byKind[wire.KindReplicateBatch] + byKind[wire.KindHeartbeat]
	}
	return msgs, repl
}

// runTCPLoad drives the closed loop against a fresh loopback TCP cluster
// with threads clients per DC. A positive visSample enables update-visibility
// tracking on every server; the samples land in Result.Visibility.
func runTCPLoad(o Options, threads, visSample int) (Result, error) {
	tc, err := newTCPCluster(o, visSample)
	if err != nil {
		return Result{}, err
	}
	defer tc.close()

	ks := workload.NewKeyspace(tc.topo, o.KeysPerPartition)
	numDCs := tc.topo.NumDCs()
	workers := numDCs * threads

	type workerOut struct {
		hist      *Histogram
		committed uint64
		err       error
	}
	outs := make([]workerOut, workers)
	var (
		startGate = make(chan struct{})
		stopFlag  = make(chan struct{})
		wg        sync.WaitGroup
	)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dc := topology.DCID(w % numDCs)
			cl, node, err := tc.newClient(dc, int32(w))
			if err != nil {
				outs[w].err = err
				return
			}
			defer func() { cl.Close(); _ = node.Close() }()
			gen := workload.NewGenerator(hotMix, tc.topo, ks, dc, 1+int64(w)*7919)
			hist := NewHistogram()
			outs[w].hist = hist

			measuring := false
			for {
				select {
				case <-stopFlag:
					return
				default:
				}
				if !measuring {
					select {
					case <-startGate:
						measuring = true
					default:
					}
				}
				plan := gen.Next()
				t0 := time.Now()
				if err := runClientTx(ctx, cl, plan); err != nil {
					outs[w].err = err
					return
				}
				if measuring {
					hist.Record(time.Since(t0))
					outs[w].committed++
				}
			}
		}(w)
	}

	time.Sleep(o.Warmup)
	msgs0, repl0 := tc.messageCounters()
	close(startGate)
	measureStart := time.Now()
	time.Sleep(o.Duration)
	elapsed := time.Since(measureStart)
	msgs1, repl1 := tc.messageCounters()
	close(stopFlag)
	wg.Wait()

	res := Result{
		Mode:    paris.ModeNonBlocking,
		Mix:     hotMix,
		Threads: workers,
		Elapsed: elapsed,
		Latency: NewHistogram(),
	}
	for _, o := range outs {
		if o.err != nil {
			return res, o.err
		}
		res.Committed += o.committed
		res.Latency.Merge(o.hist)
	}
	res.ThroughputTx = float64(res.Committed) / elapsed.Seconds()
	res.Messages = msgs1 - msgs0
	res.ReplMessages = repl1 - repl0
	if visSample > 0 {
		for _, srv := range tc.servers {
			res.Visibility = append(res.Visibility, srv.VisibilityLatencies()...)
		}
	}
	return res, nil
}

// runClientTx executes one plan directly against a client session: reads in
// one round, then writes, then commit.
func runClientTx(ctx context.Context, cl *client.Client, plan workload.TxPlan) error {
	if err := cl.Start(ctx); err != nil {
		return err
	}
	if len(plan.ReadKeys) > 0 {
		if _, err := cl.Read(ctx, plan.ReadKeys...); err != nil {
			cl.Abandon()
			return err
		}
	}
	for _, kv := range plan.Writes {
		if err := cl.Write(kv.Key, kv.Value); err != nil {
			cl.Abandon()
			return err
		}
	}
	_, err := cl.Commit(ctx)
	return err
}
