package server

import (
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/clock"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// TestPrepareBatcherCoalesces drives the group-commit prepare path end to
// end over a real (latency-bearing) MemNet link: a burst of concurrent
// prepares from one coordinator to one cohort must coalesce into PrepareBatch
// wire messages while the first in-flight call holds the pump, every caller
// must still get its own correct PrepareResp, and the cohort must hold one
// prepared entry per transaction afterwards.
func TestPrepareBatcherCoalesces(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 3 ms one-way keeps the first call in flight long enough that the rest
	// of the burst queues behind it deterministically.
	net := transport.NewMemNet(transport.Uniform{IntraDC: time.Millisecond, InterDC: 3 * time.Millisecond})
	defer func() { _ = net.Close() }()

	newServer := func(id topology.NodeID) *Server {
		srv, err := New(Config{ID: id, Topology: topo, Mode: ModeNonBlocking,
			Clock: clock.NewManual(1000)})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Register(id, srv.Peer())
		if err != nil {
			t.Fatal(err)
		}
		srv.Peer().Attach(ep)
		t.Cleanup(srv.Stop)
		return srv
	}

	// Coordinator in DC 0 on partition 0; cohort is partition 1's replica in
	// DC 1, so every prepare below crosses the inter-DC link.
	coord := newServer(topology.ServerID(0, 0))
	cohortID := topology.ServerID(1, 1)
	cohort := newServer(cohortID)

	const n = 16
	key := keysOn(t, topo, topology.PartitionID(1), 1)[0]
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]wire.Message, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := wire.NewTxID(coord.self.DC, coord.self.Partition(), uint64(i+1))
			resps[i], errs[i] = coord.prepBatch.call(cohortID, wire.PrepareReq{
				TxID: id, HT: coord.clock.Now(),
				Writes: []wire.KV{{Key: key, Value: []byte("v")}},
			})
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("prepare %d: %v", i, errs[i])
		}
		pr, ok := resps[i].(wire.PrepareResp)
		if !ok {
			t.Fatalf("prepare %d answered %#v, want PrepareResp", i, resps[i])
		}
		if pr.TxID != wire.NewTxID(coord.self.DC, coord.self.Partition(), uint64(i+1)) {
			t.Fatalf("prepare %d got response for %v", i, pr.TxID)
		}
		if pr.Proposed == 0 {
			t.Fatalf("prepare %d proposed zero timestamp", i)
		}
	}

	m := coord.Metrics()
	if m.PrepareBatches == 0 {
		t.Fatal("no PrepareBatch sent: burst never coalesced")
	}
	if m.PrepareBatchedReqs < 2 {
		t.Fatalf("PrepareBatchedReqs = %d, want >= 2", m.PrepareBatchedReqs)
	}
	if got := cohort.PendingPrepared(); got != n {
		t.Fatalf("cohort holds %d prepared entries, want %d", got, n)
	}
}

// shortBatchCohort answers every PrepareBatch with a single-entry response
// regardless of how many prepares the batch carried — the malformed-peer
// shape the batcher must treat as a failed batch.
type shortBatchCohort struct{}

func (shortBatchCohort) HandleRequest(_ topology.NodeID, req wire.Message, reply func(wire.Message)) {
	if b, ok := req.(wire.PrepareBatch); ok {
		reply(wire.PrepareBatchResp{Resps: []wire.PrepareResult{
			{TxID: b.Reqs[0].TxID, Proposed: b.Reqs[0].HT},
		}})
	}
}

func (shortBatchCohort) HandleCast(topology.NodeID, wire.Message) {}

// TestPrepareBatcherShortResponseNotCounted pins the metrics-after-validation
// contract: a transport-successful batch call whose response answers fewer
// prepares than were sent must fail every entry and must NOT move the
// group-commit counters — counting before validation overstated the batch
// rate exactly when a peer misbehaved.
func TestPrepareBatcherShortResponseNotCounted(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet(nil)
	defer func() { _ = net.Close() }()

	coord, err := New(Config{ID: topology.ServerID(0, 0), Topology: topo,
		Mode: ModeNonBlocking, Clock: clock.NewManual(1000)})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Register(coord.self, coord.Peer())
	if err != nil {
		t.Fatal(err)
	}
	coord.Peer().Attach(ep)
	t.Cleanup(coord.Stop)

	cohortID := topology.ServerID(1, 1)
	cohortPeer := transport.NewPeer(cohortID, shortBatchCohort{})
	cep, err := net.Register(cohortID, cohortPeer)
	if err != nil {
		t.Fatal(err)
	}
	cohortPeer.Attach(cep)

	batch := make([]*pendingPrepare, 3)
	for i := range batch {
		batch[i] = &pendingPrepare{
			req: wire.PrepareReq{
				TxID: wire.NewTxID(0, 0, uint64(i+1)), HT: coord.clock.Now(),
			},
			done: make(chan prepareReply, 1),
		}
	}
	coord.prepBatch.send(cohortID, batch)

	for i, pp := range batch {
		r := <-pp.done
		if r.err == nil {
			t.Fatalf("entry %d of a short-answered batch succeeded: %#v", i, r.resp)
		}
	}
	if m := coord.Metrics(); m.PrepareBatches != 0 || m.PrepareBatchedReqs != 0 {
		t.Fatalf("short response counted as a successful batch: batches=%d reqs=%d",
			m.PrepareBatches, m.PrepareBatchedReqs)
	}
}

// TestPrepareBatcherStopReleasesQueuedWaiters pins the shutdown drain: when
// the server stops while a prepare call is in flight and more prepares sit
// queued behind it, every waiter is promptly released with ErrServerStopped
// instead of hanging until its caller's timeout (or forever).
func TestPrepareBatcherStopReleasesQueuedWaiters(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet(nil)
	defer func() { _ = net.Close() }()

	newServer := func(id topology.NodeID) *Server {
		srv, err := New(Config{ID: id, Topology: topo, Mode: ModeNonBlocking,
			Clock: clock.NewManual(1000), CallTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Register(id, srv.Peer())
		if err != nil {
			t.Fatal(err)
		}
		srv.Peer().Attach(ep)
		return srv
	}
	coord := newServer(topology.ServerID(0, 0))
	cohortID := topology.ServerID(1, 1)
	cohort := newServer(cohortID)
	t.Cleanup(cohort.Stop)

	// The cohort is unreachable: the pump's first call hangs until its
	// timeout, so everything launched after it queues in the coalescer.
	net.SetLinkFault(coord.self, cohortID, transport.FaultBlackhole)

	const n = 8
	key := keysOn(t, topo, topology.PartitionID(1), 1)[0]
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := wire.NewTxID(coord.self.DC, coord.self.Partition(), uint64(i+1))
			_, errs[i] = coord.prepBatch.call(cohortID, wire.PrepareReq{
				TxID: id, HT: coord.clock.Now(),
				Writes: []wire.KV{{Key: key, Value: []byte("v")}},
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the pump take flight and the rest queue

	released := make(chan struct{})
	go func() {
		wg.Wait()
		close(released)
	}()
	coord.Stop()
	select {
	case <-released:
	case <-time.After(150 * time.Millisecond):
		t.Fatal("waiters still blocked after Stop: shutdown drain stranded them")
	}
	for i, err := range errs {
		if err != ErrServerStopped {
			t.Errorf("prepare %d returned %v, want ErrServerStopped", i, err)
		}
	}

	// New prepares after shutdown are refused outright.
	if _, err := coord.prepBatch.call(cohortID, wire.PrepareReq{
		TxID: wire.NewTxID(0, 0, 99), HT: coord.clock.Now(),
	}); err != ErrServerStopped {
		t.Fatalf("post-stop prepare returned %v, want ErrServerStopped", err)
	}
}
