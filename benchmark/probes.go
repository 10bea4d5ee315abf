package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// Isolated layer probes: one goroutine, fixed iteration counts, inputs built
// from the seed, timing calls into exported functions only. Each probe times
// probeRounds rounds and reports the median round, so one preempted round
// does not move the number. They run after the cluster is closed.
const probeRounds = 5

// timeRounds runs fn(iters) probeRounds times and returns the median
// nanoseconds per iteration.
func timeRounds(iters int, fn func(n int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		fn(iters)
		per[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(per)
}

// sunk keeps the compiler from discarding a probed call's result: every probe
// folds its results into a local and hands the local to keep when it ends.
var sunk atomic.Int64

func keep(v int) { sunk.Add(int64(v)) }

type sysClock struct{}

func (sysClock) NowMillis() uint64 { return uint64(time.Now().UnixMilli()) }

// echo answers every request with the request.
type echo struct{ arrived chan int64 }

func (echo) HandleRequest(_ topology.NodeID, req wire.Message, reply func(wire.Message)) { reply(req) }
func (e echo) HandleCast(topology.NodeID, wire.Message) {
	if e.arrived != nil {
		e.arrived <- now()
	}
}

// runProbes fills the probe half of the per-layer table. scale divides the
// iteration counts (the smoke run uses it).
func runProbes(m *metricSet, seed int64, scale int) error {
	rng := rand.New(rand.NewSource(seed))
	topo, err := topology.New(numDCs, numPartitions, replication)
	if err != nil {
		return err
	}
	ks := newKeyspace(topo, 1000)
	zipf := newZipfTable(1000, zipfTheta)
	key := func(p int) string { return ks.pools[p][zipf.draw(rng)] }
	value := func() []byte {
		v := make([]byte, valueSize)
		rng.Read(v)
		return v
	}
	n := func(iters int) int { return max(iters/scale, 10) }

	probeWire(m, rng, key, value, n)
	if err := probeTransport(m, n); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	if err := probeServer(m, rng, value, n); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	probeStore(m, rng, ks, zipf, value, n)

	sink := 0
	defer func() { keep(sink) }()
	clk := hlc.NewClock(sysClock{})
	m.set("hlc.now_ns", timeRounds(n(300000), func(iters int) {
		for i := 0; i < iters; i++ {
			sink += int(clk.Now() & 1)
		}
	}))
	pool := ks.pools[0]
	m.set("topology.partition_of_ns", timeRounds(n(1000000), func(iters int) {
		for i := 0; i < iters; i++ {
			sink += int(topo.PartitionOf(pool[i%len(pool)]))
		}
	}))
	return nil
}

func probeWire(m *metricSet, rng *rand.Rand, key func(int) string, value func() []byte, n func(int) int) {
	sink := 0
	defer func() { keep(sink) }()
	ts := hlc.New(uint64(time.Now().UnixMilli()), 0)
	// ReadResp as mem-read/tcp-read return it: 19 items of one partition.
	var resp wire.ReadResp
	for i := 0; i < 19; i++ {
		resp.Items = append(resp.Items, wire.Item{
			Key: key(0), Value: value(), UT: ts + hlc.Timestamp(rng.Intn(1<<20)),
			TxID: wire.NewTxID(0, 0, uint64(rng.Int63n(1<<30))), SrcDC: 0,
		})
	}
	// ReplicateBatch as one ΔR round of the read-heavy mix ships it: 64
	// single-write transactions, each its own commit-timestamp group.
	batch := wire.ReplicateBatch{SrcDC: 1, Epoch: uint64(rng.Int63()), Seq: 7, UpTo: ts + 1<<20, UST: ts, Sold: ts}
	for i := 0; i < 64; i++ {
		batch.Groups = append(batch.Groups, wire.ReplicateGroup{
			CT: ts + hlc.Timestamp(i*977),
			Txns: []wire.TxUpdates{{
				TxID: wire.NewTxID(1, 3, uint64(i)+1<<20), SrcDC: 1,
				Writes: []wire.KV{{Key: key(3), Value: value()}},
			}},
		})
	}
	for _, c := range []struct {
		name  string
		msg   wire.Message
		iters int
	}{{"readresp", resp, 25000}, {"replbatch", batch, 5000}} {
		buf := make([]byte, 0, 16<<10)
		encoded := wire.AppendMessageV(nil, c.msg, wire.MaxVersion)
		m.set("wire.bytes_"+c.name, float64(len(encoded)))
		m.set("wire.encode_ns_"+c.name, timeRounds(n(c.iters), func(iters int) {
			for i := 0; i < iters; i++ {
				buf = wire.AppendMessageV(buf[:0], c.msg, wire.MaxVersion)
			}
		}))
		m.set("wire.decode_ns_"+c.name, timeRounds(n(c.iters), func(iters int) {
			for i := 0; i < iters; i++ {
				msg, err := wire.DecodeV(encoded, wire.MaxVersion)
				if err != nil {
					panic(err) // the bytes came from the encoder one line above
				}
				sink += int(msg.Kind())
			}
		}))
		if c.name == "replbatch" {
			const runs = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				buf = wire.AppendMessageV(buf[:0], c.msg, wire.MaxVersion)
			}
			runtime.ReadMemStats(&after)
			m.set("wire.encode_allocs_replbatch", float64(after.Mallocs-before.Mallocs)/runs)
		}
	}
}

func probeTransport(m *metricSet, n func(int) int) error {
	ctx := context.Background()
	a, b := topology.ServerID(0, 0), topology.ServerID(1, 1)
	req := wire.StartTxReq{ClientUST: 1}

	call := func(p *transport.Peer) func(int) {
		return func(iters int) {
			for i := 0; i < iters; i++ {
				if _, err := p.Call(ctx, b, req); err != nil {
					panic(err) // a two-node echo on a private network
				}
			}
		}
	}

	// Zero-latency MemNet echo: the floor under every mem-* round trip.
	mem := transport.NewMemNet(transport.ZeroLatency{})
	pa, pb := transport.NewPeer(a, echo{}), transport.NewPeer(b, echo{})
	for _, p := range []*transport.Peer{pa, pb} {
		ep, err := mem.Register(p.Self(), p)
		if err != nil {
			return err
		}
		p.Attach(ep)
	}
	m.set("transport.memnet_rtt_us", timeRounds(n(20000), call(pa))/1e3)
	pa.Close()
	pb.Close()
	if err := mem.Close(); err != nil {
		return err
	}

	// Loopback TCP echo between two TCPNodes.
	book := transport.NewSyncBook()
	ta, tb := transport.NewPeer(a, echo{}), transport.NewPeer(b, echo{})
	var nodes []*transport.TCPNode
	for _, p := range []*transport.Peer{ta, tb} {
		node, err := transport.ListenTCPOpts(p.Self(), "127.0.0.1:0", book, p, transport.TCPOptions{})
		if err != nil {
			return err
		}
		p.Attach(node)
		book.Set(p.Self(), node.ListenAddr())
		nodes = append(nodes, node)
	}
	if _, err := ta.Call(ctx, b, req); err != nil { // dial and negotiate outside the timing
		return err
	}
	m.set("transport.tcp_rtt_us", timeRounds(n(5000), call(ta))/1e3)
	ta.Close()
	tb.Close()
	for _, node := range nodes {
		_ = node.Close()
	}

	// One-way delivery over a link configured for 1 ms: what the timer adds.
	const delay = time.Millisecond
	wan := transport.NewMemNet(transport.Uniform{IntraDC: 0, InterDC: delay})
	arrived := make(chan int64, 1)
	wa, wb := transport.NewPeer(a, echo{}), transport.NewPeer(b, echo{arrived: arrived})
	for _, p := range []*transport.Peer{wa, wb} {
		ep, err := wan.Register(p.Self(), p)
		if err != nil {
			return err
		}
		p.Attach(ep)
	}
	over := make([]float64, n(200))
	for i := range over {
		sent := now()
		if err := wa.Cast(b, wire.FinishTx{TxID: wire.TxID(i + 1)}); err != nil {
			return err
		}
		over[i] = float64(<-arrived-sent-int64(delay)) / 1e3
	}
	m.set("transport.memnet_delay_overshoot_us", median(over))
	wa.Close()
	wb.Close()
	return wan.Close()
}

// probeServer times the coordinator and cohort handlers of a lone 1×1×1
// server with no transport attached: handler cost without any hand-off.
func probeServer(m *metricSet, rng *rand.Rand, value func() []byte, n func(int) int) error {
	topo, err := topology.New(1, 1, 1)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		ID: topology.ServerID(0, 0), Topology: topo,
		ApplyInterval: stabilization, GossipInterval: stabilization, USTInterval: stabilization,
		GCInterval: gcInterval,
	})
	if err != nil {
		return err
	}
	keys := make([]string, 2000)
	items := make([]wire.Item, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-%d", i)
		items[i] = wire.Item{Key: keys[i], Value: value(), UT: 1, TxID: wire.NewTxID(0, 0, uint64(i+1))}
	}
	srv.Store().ApplyBatch(items)
	srv.Start()
	defer srv.Stop()
	// Snapshots come from the UST; wait for the first stabilization round so
	// the probed reads see the preloaded versions.
	if err := waitUST([]*server.Server{srv}, 1, 5*time.Second); err != nil {
		return err
	}
	from := topology.ClientID(0, 0)
	pick := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = keys[rng.Intn(len(keys))]
		}
		return out
	}

	// request runs one HandleRequest to its reply; coordinator reads reply
	// from a goroutine of their own, so the wait is part of the cost.
	replies := make(chan wire.Message, 1)
	request := func(req wire.Message) wire.Message {
		srv.HandleRequest(from, req, func(resp wire.Message) { replies <- resp })
		return <-replies
	}
	start := func() (wire.StartTxResp, error) {
		resp, ok := request(wire.StartTxReq{}).(wire.StartTxResp)
		if !ok {
			return resp, fmt.Errorf("start: unexpected reply")
		}
		return resp, nil
	}
	if _, err := start(); err != nil {
		return err
	}

	var probeErr error
	m.set("server.start_tx_ns", timeRounds(n(50000), func(iters int) {
		for i := 0; i < iters; i++ {
			resp, err := start()
			if err != nil {
				probeErr = err
				return
			}
			srv.HandleCast(from, wire.FinishTx{TxID: resp.TxID})
		}
	}))

	tx, err := start()
	if err != nil {
		return err
	}
	local := pick(19)
	m.set("server.read_local_ns", timeRounds(n(10000), func(iters int) {
		for i := 0; i < iters; i++ {
			if resp, ok := request(wire.ReadReq{TxID: tx.TxID, Keys: local}).(wire.ReadResp); !ok || len(resp.Items) == 0 {
				probeErr = fmt.Errorf("read: unexpected reply")
				return
			}
		}
	}))
	slice := pick(5)
	m.set("server.read_slice_ns", timeRounds(n(50000), func(iters int) {
		for i := 0; i < iters; i++ {
			if resp, ok := request(wire.ReadSliceReq{Keys: slice, Snapshot: tx.Snapshot}).(wire.ReadSliceResp); !ok || len(resp.Items) == 0 {
				probeErr = fmt.Errorf("read slice: unexpected reply %#v (snapshot %v)", resp, tx.Snapshot)
				return
			}
		}
	}))
	srv.HandleCast(from, wire.FinishTx{TxID: tx.TxID})

	// The cohort keeps a prepared write-set until it is applied, so every
	// prepare gets a slice of its own, built outside the timing.
	writeSets := make([][]wire.KV, n(20000))
	for i := range writeSets {
		writeSets[i] = make([]wire.KV, 5)
		for j := range writeSets[i] {
			writeSets[i][j] = wire.KV{Key: keys[(i*5+j)%len(keys)], Value: items[j].Value}
		}
	}
	seq := uint64(1 << 30)
	m.set("server.prepare_ns", timeRounds(len(writeSets), func(iters int) {
		for i := 0; i < iters; i++ {
			seq++
			id := wire.NewTxID(0, 0, seq)
			resp, ok := request(wire.PrepareReq{TxID: id, Snapshot: tx.Snapshot, HT: tx.Snapshot, Writes: writeSets[i]}).(wire.PrepareResp)
			if !ok {
				probeErr = fmt.Errorf("prepare: unexpected reply")
				return
			}
			srv.HandleCast(from, wire.CohortCommit{TxID: id, CommitTS: resp.Proposed})
		}
	}))
	return probeErr
}

func probeStore(m *metricSet, rng *rand.Rand, ks *keyspace, zipf *zipfTable, value func() []byte, n func(int) int) {
	sink := 0
	defer func() { keep(sink) }()
	const versions = 8
	fill := func() *store.MVStore {
		st := store.New()
		for v := 1; v <= versions; v++ {
			items := make([]wire.Item, 0, len(ks.pools[0]))
			for i, k := range ks.pools[0] {
				items = append(items, wire.Item{Key: k, Value: value(), UT: hlc.Timestamp(v * 1000), TxID: wire.NewTxID(0, 0, uint64(v*100000+i))})
			}
			st.ApplyBatch(items)
		}
		return st
	}

	st := fill()
	ranks := make([]int, 4096)
	for i := range ranks {
		ranks[i] = zipf.draw(rng)
	}
	pool := ks.pools[0]
	m.set("store.read_ns", timeRounds(n(1000000), func(iters int) {
		for i := 0; i < iters; i++ {
			item, _ := st.Read(pool[ranks[i%len(ranks)]], versions*1000)
			sink += len(item.Value)
		}
	}))

	batch := make([]wire.Item, 64)
	for j := range batch {
		batch[j].Value = value()
	}
	ut := hlc.Timestamp(versions * 1000)
	m.set("store.apply_ns_per_item", timeRounds(n(5000), func(iters int) {
		for i := 0; i < iters; i++ {
			ut++
			for j := range batch {
				batch[j] = wire.Item{Key: pool[(i*64+j)%len(pool)], Value: batch[j].Value, UT: ut, TxID: wire.TxID(ut)}
			}
			st.ApplyBatch(batch)
		}
	})/float64(len(batch)))

	// GC of a store holding 8 versions per key down to 2: cost per version cut.
	per := make([]float64, probeRounds)
	for r := range per {
		g := fill()
		t0 := time.Now()
		removed := g.GC(hlc.Timestamp((versions - 1) * 1000))
		per[r] = ratio(float64(time.Since(t0)), float64(removed))
	}
	m.set("store.gc_ns_per_version", median(per))
}
