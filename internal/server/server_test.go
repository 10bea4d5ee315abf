package server

import (
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/clock"
	"github.com/paris-kv/paris/internal/crdt"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// testRig wires one server (DC 0, partition 0 by default) to a MemNet with a
// manual clock and collectors registered as its peers, so protocol steps can
// be driven by hand without background loops.
type testRig struct {
	t     *testing.T
	topo  *topology.Topology
	net   *transport.MemNet
	srv   *Server
	clk   *clock.Manual
	peers map[topology.NodeID]*castCollector
}

// castCollector records casts sent to a peer node.
type castCollector struct {
	mu   sync.Mutex
	msgs []wire.Message
}

func (c *castCollector) Deliver(env transport.Envelope) {
	c.mu.Lock()
	c.msgs = append(c.msgs, env.Msg)
	c.mu.Unlock()
}

func (c *castCollector) byKind(k wire.Kind) []wire.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.Message
	for _, m := range c.msgs {
		if m.Kind() == k {
			out = append(out, m)
		}
	}
	return out
}

func (c *castCollector) waitKind(t *testing.T, k wire.Kind, n int) []wire.Message {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if msgs := c.byKind(k); len(msgs) >= n {
			return msgs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d %v casts (have %d)", n, k, len(c.byKind(k)))
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestRig(t *testing.T, mode Mode, opts ...func(*Config)) *testRig {
	t.Helper()
	return newTestRigAt(t, mode, topology.ServerID(0, 0), opts...)
}

func newTestRigAt(t *testing.T, mode Mode, id topology.NodeID, opts ...func(*Config)) *testRig {
	t.Helper()
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{
		t:     t,
		topo:  topo,
		net:   transport.NewMemNet(nil),
		clk:   clock.NewManual(1000),
		peers: make(map[topology.NodeID]*castCollector),
	}
	t.Cleanup(func() { _ = rig.net.Close() })

	cfg := Config{
		ID:       id,
		Topology: topo,
		Mode:     mode,
		Clock:    rig.clk,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	topo, rig.topo = cfg.Topology, cfg.Topology // an option may deploy a larger one
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.srv = srv
	ep, err := rig.net.Register(id, srv.Peer())
	if err != nil {
		t.Fatal(err)
	}
	srv.Peer().Attach(ep)
	t.Cleanup(srv.Stop)

	// Register collectors for every other server the node might talk to.
	for _, node := range topo.AllServers() {
		if node == id {
			continue
		}
		col := &castCollector{}
		if _, err := rig.net.Register(node, col); err != nil {
			t.Fatal(err)
		}
		rig.peers[node] = col
	}
	return rig
}

// nextRound runs the server's next apply round by hand, labelled one past the
// last.
func (s *Server) nextRound() { s.applyTick(s.stab.round.Load() + 1) }

func TestConfigValidation(t *testing.T) {
	topo, _ := topology.New(3, 3, 2)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil topology", Config{ID: topology.ServerID(0, 0)}},
		{"client identity", Config{ID: topology.ClientID(0, 0), Topology: topo}},
		{"not replicated here", Config{ID: topology.ServerID(2, 0), Topology: topo}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
}

func TestStartTxSnapshotsMonotonicAndClientDriven(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	r1 := s.handleStartTx(wire.StartTxReq{ClientUST: 0}).(wire.StartTxResp)
	if r1.Snapshot != 0 {
		t.Fatalf("initial snapshot %v, want 0 (nothing stable yet)", r1.Snapshot)
	}
	// A client that has seen a fresher stable time pushes the server's UST.
	r2 := s.handleStartTx(wire.StartTxReq{ClientUST: hlc.New(500, 0)}).(wire.StartTxResp)
	if r2.Snapshot != hlc.New(500, 0) {
		t.Fatalf("snapshot %v, want 500.0", r2.Snapshot)
	}
	if s.UST() != hlc.New(500, 0) {
		t.Fatalf("server UST %v not updated from client", s.UST())
	}
	// Distinct transaction ids.
	if r1.TxID == r2.TxID {
		t.Fatal("duplicate transaction ids")
	}
}

// TestFirstOperationStartsTransaction: a ReadReq or CommitReq with a zero
// TxID runs the start logic before it is served and reports the id and
// snapshot back; with an id, ClientUST is ignored.
func TestFirstOperationStartsTransaction(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) { c.CallTimeout = 50 * time.Millisecond })
	s := rig.srv
	local := keyForPartition(t, rig.topo, 0)

	first, ok := s.handleRead(wire.ReadReq{ClientUST: hlc.New(500, 0), Keys: []string{local}}).(wire.ReadResp)
	if !ok || first.TxID == 0 || first.Snapshot != hlc.New(500, 0) || s.UST() != hlc.New(500, 0) {
		t.Fatalf("first read %+v (ok=%v), server UST %v: want a new transaction at 500.0", first, ok, s.UST())
	}
	again, ok := s.handleRead(wire.ReadReq{TxID: first.TxID, ClientUST: hlc.New(900, 0)}).(wire.ReadResp)
	if !ok || again.TxID != first.TxID || again.Snapshot != first.Snapshot || s.UST() != hlc.New(500, 0) {
		t.Fatalf("second read %+v, server UST %v: want the same transaction and ClientUST ignored", again, s.UST())
	}
	if n := s.ActiveTxContexts(); n != 1 {
		t.Fatalf("%d contexts, want 1", n)
	}

	commit, ok := s.handleCommit(wire.CommitReq{ClientUST: hlc.New(600, 0),
		Writes: []wire.KV{{Key: local, Value: []byte("v")}}}).(wire.CommitResp)
	if !ok || commit.TxID == 0 || commit.TxID == first.TxID || commit.Snapshot != hlc.New(600, 0) || commit.CommitTS <= commit.Snapshot {
		t.Fatalf("commit %+v (ok=%v): want a second transaction at 600.0 committed above its snapshot", commit, ok)
	}
	if n := s.ActiveTxContexts(); n != 1 {
		t.Fatalf("%d contexts after the commit, want only the open read's", n)
	}

	// A first read that fails never told the client its id: the context must
	// not be left to pin the GC watermark until the TTL. (The rig's other
	// nodes never answer, so a read of a partition this server does not
	// replicate times out.)
	remote := keyForPartition(t, rig.topo, 1)
	if rig.topo.IsReplicatedAt(1, 0) {
		t.Fatal("partition 1 is replicated in DC 0; pick another for the remote read")
	}
	if resp, ok := s.handleRead(wire.ReadReq{Keys: []string{remote}}).(wire.ErrorResp); !ok {
		t.Fatalf("remote read answered %+v, want an error", resp)
	}
	if n := s.ActiveTxContexts(); n != 1 {
		t.Fatalf("%d contexts after a failed first read, want its context dropped", n)
	}
}

func TestStartTxBPRUsesClock(t *testing.T) {
	rig := newTestRig(t, ModeBlocking)
	r := rig.srv.handleStartTx(wire.StartTxReq{ClientUST: 0}).(wire.StartTxResp)
	if r.Snapshot.Physical() < 1000 {
		t.Fatalf("BPR snapshot %v not from clock (manual clock at 1000ms)", r.Snapshot)
	}
	// And BPR must NOT corrupt the stable time with clock values.
	if rig.srv.UST() != 0 {
		t.Fatalf("BPR start advanced UST to %v", rig.srv.UST())
	}
}

func TestPrepareReflectsCausality(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	ht := hlc.New(5000, 3) // far above the local clock (1000ms)
	resp := s.handlePrepare(wire.PrepareReq{
		TxID: 1, Snapshot: hlc.New(900, 0), HT: ht,
		Writes: []wire.KV{{Key: "k", Value: []byte("v")}},
	}).(wire.PrepareResp)
	if resp.Proposed <= ht {
		t.Fatalf("proposed %v not above ht %v", resp.Proposed, ht)
	}
	if s.PendingPrepared() != 1 {
		t.Fatalf("prepared queue size %d, want 1", s.PendingPrepared())
	}
	// A second prepare proposes strictly higher (HLC+1 rule).
	resp2 := s.handlePrepare(wire.PrepareReq{TxID: 2, Snapshot: 0, HT: 0}).(wire.PrepareResp)
	if resp2.Proposed <= resp.Proposed {
		t.Fatalf("prepare times not strictly increasing: %v then %v", resp.Proposed, resp2.Proposed)
	}
}

func TestCommitAppliesInTimestampOrderAndReplicates(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// Prepare and commit two transactions.
	p1 := s.handlePrepare(wire.PrepareReq{TxID: 1, HT: 0,
		Writes: []wire.KV{{Key: "a", Value: []byte("1")}}}).(wire.PrepareResp)
	p2 := s.handlePrepare(wire.PrepareReq{TxID: 2, HT: 0,
		Writes: []wire.KV{{Key: "a", Value: []byte("2")}}}).(wire.PrepareResp)
	s.handleCohortCommit(wire.CohortCommit{TxID: 1, CommitTS: p1.Proposed})
	s.handleCohortCommit(wire.CohortCommit{TxID: 2, CommitTS: p2.Proposed})
	if s.PendingCommitted() != 2 {
		t.Fatalf("committed queue %d, want 2", s.PendingCommitted())
	}

	s.nextRound()
	if s.PendingCommitted() != 0 {
		t.Fatalf("committed queue not drained: %d", s.PendingCommitted())
	}
	// LWW: the version with the higher commit timestamp wins.
	item, ok := s.Store().Read("a", hlc.MaxTimestamp)
	if !ok || string(item.Value) != "2" {
		t.Fatalf("store head = %q, %v; want 2", item.Value, ok)
	}
	// The local version clock covers both commits.
	if vv := s.VersionVector()[0]; vv < p2.Proposed {
		t.Fatalf("VV[self] %v below applied commit %v", vv, p2.Proposed)
	}
	// Replication reached the peer replica of partition 0 (DC 1) as one
	// coalesced batch carrying both commit-timestamp groups.
	peer := rig.peers[topology.ServerID(1, 0)]
	reps := peer.waitKind(t, wire.KindReplicateBatch, 1)
	total := 0
	for _, m := range reps {
		b := m.(wire.ReplicateBatch)
		for _, g := range b.Groups {
			total += len(g.Txns)
		}
		if b.UpTo < p2.Proposed {
			t.Fatalf("batch UpTo %v below applied commit %v", b.UpTo, p2.Proposed)
		}
	}
	if total != 2 {
		t.Fatalf("replicated %d transactions, want 2", total)
	}
}

func TestApplyTickDoesNotApplyBeyondPreparedBound(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// T1 prepares at pt1; T2 prepares later and commits at a high ct while
	// T1 is still pending: T2 must not apply (ct ≥ pt1).
	p1 := s.handlePrepare(wire.PrepareReq{TxID: 1, HT: 0,
		Writes: []wire.KV{{Key: "x", Value: []byte("1")}}}).(wire.PrepareResp)
	p2 := s.handlePrepare(wire.PrepareReq{TxID: 2, HT: 0,
		Writes: []wire.KV{{Key: "y", Value: []byte("2")}}}).(wire.PrepareResp)
	s.handleCohortCommit(wire.CohortCommit{TxID: 2, CommitTS: p2.Proposed})

	s.nextRound()
	if _, ok := s.Store().Read("y", hlc.MaxTimestamp); ok {
		t.Fatal("applied a commit above the prepared lower bound")
	}
	if vv := s.VersionVector()[0]; vv >= p1.Proposed {
		t.Fatalf("VV advanced to %v, at/above pending prepare %v", vv, p1.Proposed)
	}

	// Once T1 commits, both apply.
	s.handleCohortCommit(wire.CohortCommit{TxID: 1, CommitTS: p1.Proposed})
	s.nextRound()
	if _, ok := s.Store().Read("x", hlc.MaxTimestamp); !ok {
		t.Fatal("T1 not applied")
	}
	if _, ok := s.Store().Read("y", hlc.MaxTimestamp); !ok {
		t.Fatal("T2 not applied")
	}
}

func TestApplyTickCommitEqualToBoundIsApplied(t *testing.T) {
	// Regression test for the ct == ub edge (see applyTick doc comment): a
	// transaction whose commit timestamp equals minPrepared−1 must be
	// applied before VV[self] advances to that bound.
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	p1 := s.handlePrepare(wire.PrepareReq{TxID: 1, HT: 0,
		Writes: []wire.KV{{Key: "edge", Value: []byte("v")}}}).(wire.PrepareResp)
	// Second prepare pins the bound exactly one above T1's commit.
	s.handlePrepare(wire.PrepareReq{TxID: 2, HT: p1.Proposed,
		Writes: []wire.KV{{Key: "other", Value: []byte("w")}}})
	s.handleCohortCommit(wire.CohortCommit{TxID: 1, CommitTS: p1.Proposed})

	s.nextRound()
	vv := s.VersionVector()[0]
	if vv >= p1.Proposed {
		// VV covers T1's commit: the version must be in the store.
		if _, ok := s.Store().Read("edge", vv); !ok {
			t.Fatal("VV claims coverage of an unapplied commit (ct == ub edge)")
		}
	}
}

func TestHeartbeatWhenIdle(t *testing.T) {
	// An idle ΔR round still announces its upper bound: the heartbeat is an
	// empty ReplicateBatch carrying only UpTo.
	rig := newTestRig(t, ModeNonBlocking)
	rig.srv.nextRound()
	peer := rig.peers[topology.ServerID(1, 0)]
	hbs := peer.waitKind(t, wire.KindReplicateBatch, 1)
	hb := hbs[0].(wire.ReplicateBatch)
	if hb.SrcDC != 0 {
		t.Fatalf("heartbeat src %d", hb.SrcDC)
	}
	if len(hb.Groups) != 0 {
		t.Fatalf("idle batch carries %d groups", len(hb.Groups))
	}
	if hb.UpTo == 0 {
		t.Fatal("heartbeat carries zero timestamp")
	}
	if got := rig.srv.VersionVector()[0]; got != hb.UpTo {
		t.Fatalf("heartbeat ts %v != VV[self] %v", hb.UpTo, got)
	}
}

func TestUnbatchedLegacyReplicationPath(t *testing.T) {
	// BatchMaxItems < 0 restores the seed wire protocol: one Replicate per
	// commit timestamp, Heartbeat when idle.
	unbatched := func(c *Config) { c.BatchMaxItems = -1 }
	rig := newTestRig(t, ModeNonBlocking, unbatched)
	s := rig.srv
	peer := rig.peers[topology.ServerID(1, 0)]

	s.nextRound()
	hbs := peer.waitKind(t, wire.KindHeartbeat, 1)
	if hb := hbs[0].(wire.Heartbeat); hb.TS == 0 || hb.SrcDC != 0 {
		t.Fatalf("bad legacy heartbeat %+v", hb)
	}

	p := s.handlePrepare(wire.PrepareReq{TxID: 1, HT: 0,
		Writes: []wire.KV{{Key: "k", Value: []byte("v")}}}).(wire.PrepareResp)
	s.handleCohortCommit(wire.CohortCommit{TxID: 1, CommitTS: p.Proposed})
	s.nextRound()
	reps := peer.waitKind(t, wire.KindReplicate, 1)
	if rep := reps[0].(wire.Replicate); len(rep.Txns) != 1 || rep.CT != p.Proposed {
		t.Fatalf("bad legacy replicate %+v", rep)
	}
	if got := peer.byKind(wire.KindReplicateBatch); len(got) != 0 {
		t.Fatalf("legacy path emitted %d ReplicateBatch messages", len(got))
	}
}

func TestReplicateAppliesAndAdvancesVV(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	rep := wire.Replicate{
		SrcDC: 1, CT: hlc.New(2000, 0),
		Txns: []wire.TxUpdates{{TxID: 77, SrcDC: 1,
			Writes: []wire.KV{{Key: "r", Value: []byte("remote")}}}},
	}
	s.handleReplicate(rep)
	item, ok := s.Store().Read("r", hlc.MaxTimestamp)
	if !ok || string(item.Value) != "remote" || item.SrcDC != 1 {
		t.Fatalf("remote update not applied: %+v %v", item, ok)
	}
	if got := s.VersionVector()[1]; got != hlc.New(2000, 0) {
		t.Fatalf("VV[1] = %v, want 2000.0", got)
	}
	// Duplicate delivery is idempotent.
	s.handleReplicate(rep)
	if n := s.Store().VersionCount("r"); n != 1 {
		t.Fatalf("duplicate replicate created %d versions", n)
	}
}

func TestHeartbeatNeverRegressesVV(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.handleHeartbeat(wire.Heartbeat{SrcDC: 1, TS: hlc.New(3000, 0)})
	s.handleHeartbeat(wire.Heartbeat{SrcDC: 1, TS: hlc.New(2000, 0)})
	if got := s.VersionVector()[1]; got != hlc.New(3000, 0) {
		t.Fatalf("VV regressed to %v", got)
	}
	// Unknown DCs (not replicas of this partition) are ignored.
	s.handleHeartbeat(wire.Heartbeat{SrcDC: 2, TS: hlc.New(9000, 0)})
	if _, ok := s.VersionVector()[2]; ok {
		t.Fatal("VV grew an entry for a non-replica DC")
	}
}

func TestReadSliceRespectsSnapshot(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.Store().Apply(wire.Item{Key: "k", Value: []byte("old"), UT: hlc.New(10, 0), TxID: 1})
	s.Store().Apply(wire.Item{Key: "k", Value: []byte("new"), UT: hlc.New(20, 0), TxID: 2})

	resp := s.handleReadSlice(wire.ReadSliceReq{Keys: []string{"k", "missing"},
		Snapshot: hlc.New(15, 0)}).(wire.ReadSliceResp)
	if len(resp.Items) != 1 || string(resp.Items[0].Value) != "old" {
		t.Fatalf("slice read returned %+v", resp.Items)
	}
	// The piggybacked snapshot advanced the server's UST (Alg. 3 line 2).
	if s.UST() != hlc.New(15, 0) {
		t.Fatalf("UST %v, want 15.0", s.UST())
	}
}

func TestBlockingReadWaitsForInstallation(t *testing.T) {
	rig := newTestRig(t, ModeBlocking)
	s := rig.srv

	target := hlc.New(5000, 0)
	done := make(chan wire.Message, 1)
	go func() {
		done <- s.handleReadSliceBlocking(wire.ReadSliceReq{Keys: []string{"b"}, Snapshot: target})
	}()
	select {
	case <-done:
		t.Fatal("blocking read returned before installation")
	case <-time.After(50 * time.Millisecond):
	}

	// Install the snapshot: remote heartbeat + local apply tick past target.
	s.handleHeartbeat(wire.Heartbeat{SrcDC: 1, TS: target})
	rig.clk.Set(5001)
	s.nextRound() // advances VV[self] past 5000 and wakes waiters

	select {
	case resp := <-done:
		if _, ok := resp.(wire.ReadSliceResp); !ok {
			t.Fatalf("unexpected response %v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking read never woke")
	}
	m := s.Metrics()
	if m.ReadsBlocked != 1 || m.BlockedTotal <= 0 {
		t.Fatalf("blocking metrics not recorded: %+v", m)
	}
}

func TestNonBlockingReadNeverWaits(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	start := time.Now()
	// Snapshot far in the future of installation: PaRiS still answers
	// immediately (the UST discipline guarantees it is only ever asked for
	// stable snapshots; the server must not second-guess).
	_ = s.handleReadSlice(wire.ReadSliceReq{Keys: []string{"k"}, Snapshot: hlc.New(99999, 0)})
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("non-blocking read blocked")
	}
}

func TestRequestsRejectedAfterStop(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.Stop()
	got := make(chan wire.Message, 1)
	s.HandleRequest(topology.ClientID(0, 0), wire.StartTxReq{}, func(m wire.Message) { got <- m })
	resp := <-got
	if e, ok := resp.(wire.ErrorResp); !ok || e.Code != wire.CodeShuttingDown {
		t.Fatalf("post-stop response %+v", resp)
	}
	s.Stop() // idempotent
}

func TestStopUnblocksWaiters(t *testing.T) {
	rig := newTestRig(t, ModeBlocking)
	s := rig.srv
	done := make(chan struct{})
	go func() {
		_ = s.handleReadSliceBlocking(wire.ReadSliceReq{Keys: []string{"k"},
			Snapshot: hlc.New(999999, 0)})
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop left a blocked reader hanging")
	}
}

func TestFinishTxClearsContext(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	r := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	if s.ActiveTxContexts() != 1 {
		t.Fatal("context not created")
	}
	s.handleFinishTx(wire.FinishTx{TxID: r.TxID})
	if s.ActiveTxContexts() != 0 {
		t.Fatal("context not cleared")
	}
}

func TestCtxCleanupEvictsStaleContexts(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	r := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	// Force-age the context's activity clock (the TTL is measured from the
	// last touch, not from transaction start).
	age := func() {
		for i := range s.txCtx.shards {
			sh := &s.txCtx.shards[i]
			sh.mu.Lock()
			for id, ctx := range sh.m {
				ctx.started = time.Now().Add(-time.Hour)
				ctx.lastActive = ctx.started
				sh.m[id] = ctx
			}
			sh.mu.Unlock()
		}
	}
	age()
	// A read touch revives the context: an old-but-active transaction must
	// not be reaped mid-flight.
	_ = s.handleRead(wire.ReadReq{TxID: r.TxID})
	s.ctxCleanupTick()
	if s.ActiveTxContexts() != 1 {
		t.Fatal("active context reaped despite recent touch")
	}
	age()
	s.ctxCleanupTick()
	if s.ActiveTxContexts() != 0 {
		t.Fatal("stale context survived cleanup")
	}
}

func TestUnknownTxRejected(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	resp := s.handleRead(wire.ReadReq{TxID: 12345, Keys: []string{"k"}})
	if e, ok := resp.(wire.ErrorResp); !ok || e.Code != wire.CodeUnknownTx {
		t.Fatalf("unknown tx read: %+v", resp)
	}
	resp = s.handleCommit(wire.CommitReq{TxID: 12345,
		Writes: []wire.KV{{Key: "k", Value: nil}}})
	if e, ok := resp.(wire.ErrorResp); !ok || e.Code != wire.CodeUnknownTx {
		t.Fatalf("unknown tx commit: %+v", resp)
	}
}

func TestModeString(t *testing.T) {
	if ModeNonBlocking.String() != "paris" || ModeBlocking.String() != "bpr" {
		t.Fatal("mode names wrong")
	}
}

func TestReadSliceUsesResolver(t *testing.T) {
	// Servers configured with a resolver merge chains at read time.
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		ID:       topology.ServerID(0, 0),
		Topology: topo,
		Clock:    clockAt(1000),
		ResolverFor: func(key string) store.Resolver {
			if len(key) >= 4 && key[:4] == "cnt:" {
				return crdt.Counter{}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	srv.Store().Apply(wire.Item{Key: "cnt:x", Value: crdt.EncodeDelta(5), UT: hlc.New(10, 0), TxID: 1})
	srv.Store().Apply(wire.Item{Key: "cnt:x", Value: crdt.EncodeDelta(7), UT: hlc.New(20, 0), TxID: 2})
	srv.Store().Apply(wire.Item{Key: "plain", Value: []byte("old"), UT: hlc.New(10, 0), TxID: 3})
	srv.Store().Apply(wire.Item{Key: "plain", Value: []byte("new"), UT: hlc.New(20, 0), TxID: 4})

	resp := srv.handleReadSlice(wire.ReadSliceReq{
		Keys: []string{"cnt:x", "plain"}, Snapshot: hlc.New(25, 0),
	}).(wire.ReadSliceResp)
	byKey := make(map[string]wire.Item, len(resp.Items))
	for _, it := range resp.Items {
		byKey[it.Key] = it
	}
	if got := crdt.DecodeValue(byKey["cnt:x"].Value); got != 12 {
		t.Fatalf("counter read = %d, want 12", got)
	}
	if string(byKey["plain"].Value) != "new" {
		t.Fatalf("plain read = %q, want LWW winner", byKey["plain"].Value)
	}
}
