package paris

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
)

// Flow-control sizing for the backpressure stress: a budget far below the
// offered write volume so every destination's pump saturates. The chunk cap
// derives the send-queue bound, 4 × the cap, so single rounds always admit.
const (
	testFlowBudget   = 2 << 10
	testFlowBatchMax = 2 << 10
	testHighWater    = 4 * testFlowBatchMax
)

// TestFlowControlBackpressureBound is the -race backpressure stress: writers
// hammer kilobyte values at a replication plane budgeted to a fraction of
// the offered load, with a bandwidth-constrained MemNet link underneath one
// replication direction. The per-destination send-queue byte bound must hold
// on every server for the whole run — that is the sender-memory guarantee
// flow control exists for — and once the throttle opens the cluster must
// converge to a universally stable probe.
func TestFlowControlBackpressureBound(t *testing.T) {
	cfg := testConfig()
	cfg.BandwidthBudget = testFlowBudget
	cfg.BatchMaxBytes = testFlowBatchMax
	c := newTestCluster(t, cfg)

	// One WAN-constrained replication direction on top of the budget: DC0's
	// servers reach DC1's at a tenth of the budget, plus added latency.
	slow := transport.FaultSlowLink{Rate: testFlowBudget / 10, Delay: 2 * time.Millisecond}
	for _, x := range c.Topology().AllServers() {
		for _, y := range c.Topology().AllServers() {
			if x.DC == 0 && y.DC == 1 {
				c.Net().SetLinkSlow(x, y, slow)
			}
		}
	}

	writeFor := 800 * time.Millisecond
	if testing.Short() {
		writeFor = 300 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	val := make([]byte, 1024)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := c.NewSession(DCID(w % 3))
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer sess.Close()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.Put(ctx, map[string][]byte{
					fmt.Sprintf("flow-%d-%d", w, i): val,
				}); err != nil {
					sess.Client().Abandon()
				}
			}
		}(w)
	}
	time.Sleep(writeFor)
	close(stop)
	wg.Wait()

	// The hard invariant: no destination's queue ever crossed the high
	// water, on any server, at any point — checked against the lifetime max,
	// not a lucky snapshot.
	var maxQueued int
	var degraded, coalesced uint64
	for _, srv := range c.Servers() {
		for _, st := range srv.FlowStats() {
			if st.MaxQueuedBytes > testHighWater {
				t.Errorf("server %v -> %v queued %d bytes, above high water %d",
					srv.ID(), st.Dest, st.MaxQueuedBytes, testHighWater)
			}
			if st.MaxQueuedBytes > maxQueued {
				maxQueued = st.MaxQueuedBytes
			}
			degraded += st.DegradedEntries
			coalesced += st.Coalesced
		}
	}
	if maxQueued == 0 {
		t.Fatal("no bytes ever queued — flow control was not in the path")
	}
	if degraded == 0 {
		t.Error("no destination degraded — the budget never saturated")
	}
	if coalesced == 0 {
		t.Error("no rounds coalesced under pressure")
	}
	t.Logf("flow: maxQueued=%dB degradedEntries=%d coalesced=%d", maxQueued, degraded, coalesced)

	// Open the throttle and heal the link: the backlog plus every shed
	// window's repair must drain to a universally stable probe.
	c.Net().ClearSlowLinks()
	c.SetFlowBudget(8 << 20)
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ct, err := sess.Put(context.Background(), map[string][]byte{"flow-probe": []byte("x")})
	if err != nil {
		t.Fatalf("probe write: %v", err)
	}
	if !c.WaitForUST(ct, 10*time.Second) {
		t.Fatal("probe never became universally stable after opening the throttle")
	}
}

// TestTinyChunkCapStillReplicates: with a chunk cap far below one chunk's
// header, the derived queue bound still admits heartbeats, so receivers latch
// onto the stream, every data round travels by the repair path and the
// cluster stabilizes.
func TestTinyChunkCapStillReplicates(t *testing.T) {
	cfg := testConfig()
	cfg.BatchMaxBytes = 1
	c := newTestCluster(t, cfg)
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var last Timestamp
	for i := 0; i < 20; i++ {
		if last, err = sess.Put(context.Background(), map[string][]byte{fmt.Sprintf("tiny-%d", i): []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitForUST(last, 5*time.Second) {
		t.Fatal("the writes never became universally stable")
	}
}

// TestFlowBudgetSurvivesRestart: a replica crashed and restarted after
// SetFlowBudget raised the budget paces at the raised budget, not at the one
// the cluster was built with.
func TestFlowBudgetSurvivesRestart(t *testing.T) {
	cfg := testConfig()
	cfg.BandwidthBudget = testFlowBudget
	cfg.BatchMaxBytes = testFlowBatchMax
	c := newTestCluster(t, cfg)
	c.SetFlowBudget(8 << 20)

	id := topology.ServerID(0, c.Topology().PartitionsAt(0)[0])
	if err := c.CrashServer(id); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(id, 0); err != nil {
		t.Fatal(err)
	}
	srv := c.Server(id.DC, int(id.Partition()))

	// 32 KiB onto the restarted replica's partition, eight times the burst
	// and sixteen seconds of the old budget: at the old budget its pumps
	// wait for credit at once, at the raised one (burst 2 MiB) never.
	sess, err := c.NewSession(id.DC)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	val := make([]byte, 1024)
	var last Timestamp
	for i, n := 0, 0; n < 32; i++ {
		k := fmt.Sprintf("restart-%d", i)
		if c.Topology().PartitionOf(k) != id.Partition() {
			continue
		}
		n++
		if last, err = sess.Put(context.Background(), map[string][]byte{k: val}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitForUST(last, 5*time.Second) {
		t.Fatal("the writes never became universally stable")
	}
	for _, st := range srv.FlowStats() {
		if st.ThrottledFor != 0 {
			t.Fatalf("restarted server waited %v for credit toward %v: it paces at the old budget",
				st.ThrottledFor, st.Dest)
		}
	}
}
