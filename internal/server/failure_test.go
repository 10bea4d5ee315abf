package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// These tests cover the failure-handling subsystem at the protocol-step
// level: the prepared-transaction reaper, the AbortTx release path, the
// aborted-set guards that keep a dead transaction from being half-applied,
// and the coordinator's abort fan-out when a cohort cannot prepare.

// agePrepared backdates every prepared entry on s by age — its rounds before
// the server's current label — so reaper tests can cross the TTL without
// running rounds.
func agePrepared(s *Server, age time.Duration) {
	tab := &s.twoPC
	tab.mu.Lock()
	for _, p := range tab.prepared {
		p.at = s.label() - s.cfg.rounds(age)
	}
	tab.mu.Unlock()
}

func keyForPartition(t *testing.T, topo *topology.Topology, p topology.PartitionID) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d-%d", p, i)
		if topo.PartitionOf(k) == p {
			return k
		}
	}
	t.Fatalf("no key found for partition %d", p)
	return ""
}

func TestReaperDrainsOrphanedPrepares(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// A prepared transaction with no commit decision pins the version-clock
	// upper bound: ub = pt − 1 regardless of wall-clock progress.
	resp := s.handlePrepare(wire.PrepareReq{TxID: 77, HT: 500,
		Writes: []wire.KV{{Key: "orphan", Value: []byte("x")}}})
	pt := resp.(wire.PrepareResp).Proposed
	rig.clk.Advance(10000)
	s.nextRound()
	if got := s.VersionVector()[s.ID().DC]; got != pt-1 {
		t.Fatalf("vv[self] = %v with an orphaned prepare, want pinned at pt-1 = %v", got, pt-1)
	}

	// Fresh entries survive a reap pass; aged ones are reaped.
	s.reapTick()
	if s.PendingPrepared() != 1 {
		t.Fatal("reaper removed a fresh prepared entry")
	}
	agePrepared(s, time.Hour)
	s.reapTick()
	if s.PendingPrepared() != 0 {
		t.Fatal("reaper left an expired prepared entry")
	}
	if got := s.Metrics().TxReaped; got != 1 {
		t.Fatalf("TxReaped = %d, want 1", got)
	}
	if s.AbortedCount() != 1 {
		t.Fatal("reaped transaction not tombstoned")
	}

	// The version clock is unpinned again.
	rig.clk.Advance(10)
	s.nextRound()
	if got := s.VersionVector()[s.ID().DC]; got <= pt {
		t.Fatalf("vv[self] = %v after reap, want above pt %v", got, pt)
	}

	// Atomicity across the reap race: a straggling CohortCommit for the
	// reaped transaction must be rejected, never applied — ub has already
	// advanced past its prepare time.
	s.handleCohortCommit(wire.CohortCommit{TxID: 77, CommitTS: pt})
	if s.PendingCommitted() != 0 {
		t.Fatal("reaped transaction entered the committed queue")
	}
	if got := s.Metrics().CommitsRejected; got != 1 {
		t.Fatalf("CommitsRejected = %d, want 1", got)
	}
	if _, ok := s.Store().ReadLatest("orphan"); ok {
		t.Fatal("reaped transaction's write reached the store")
	}
}

func TestAbortTxReleasesPreparedAndBlocksRetries(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	id := wire.NewTxID(1, 2, 9)
	s.handlePrepare(wire.PrepareReq{TxID: id, HT: 100,
		Writes: []wire.KV{{Key: "a", Value: []byte("1")}}})
	if s.PendingPrepared() != 1 {
		t.Fatal("prepare not parked")
	}

	s.HandleCast(topology.ServerID(1, 2), wire.AbortTx{TxID: id})
	if s.PendingPrepared() != 0 {
		t.Fatal("abort left the prepared entry")
	}
	if got := s.Metrics().CohortAborts; got != 1 {
		t.Fatalf("CohortAborts = %d, want 1", got)
	}

	// Post-abort stragglers are refused: a commit is rejected and a re-sent
	// prepare must not recreate an unresolvable orphan.
	s.handleCohortCommit(wire.CohortCommit{TxID: id, CommitTS: 200})
	if s.PendingCommitted() != 0 || s.Metrics().CommitsRejected != 1 {
		t.Fatal("commit for aborted transaction not rejected")
	}
	resp := s.handlePrepare(wire.PrepareReq{TxID: id, HT: 100,
		Writes: []wire.KV{{Key: "a", Value: []byte("1")}}})
	if e, ok := resp.(wire.ErrorResp); !ok || e.Code != wire.CodeTxAborted {
		t.Fatalf("prepare after abort = %+v, want CodeTxAborted", resp)
	}
	if s.PendingPrepared() != 0 {
		t.Fatal("refused prepare still parked an entry")
	}

	// An abort for a transaction never seen here only plants a tombstone.
	s.HandleCast(topology.ServerID(1, 2), wire.AbortTx{TxID: 424242})
	if got := s.Metrics().CohortAborts; got != 1 {
		t.Fatalf("CohortAborts = %d after no-op abort, want still 1", got)
	}
	if s.AbortedCount() != 2 {
		t.Fatalf("AbortedCount = %d, want 2", s.AbortedCount())
	}
}

func TestAbortedTombstonesArePruned(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.HandleCast(topology.ServerID(1, 0), wire.AbortTx{TxID: 7})
	s.nextRound()
	if s.AbortedCount() != 1 {
		t.Fatal("a live tombstone was pruned")
	}
	// Age the tombstone past the retention horizon; the next round prunes it.
	s.labelNow.Add(s.cfg.rounds(s.cfg.abortedRetention()))
	s.nextRound()
	if s.AbortedCount() != 0 {
		t.Fatal("expired tombstone survived pruning")
	}
}

func TestCommitAbortsAllCohortsOnPrepareFailure(t *testing.T) {
	// Coordinator s0.0; the write-set spans its own partition (prepares
	// locally) and partition 1, whose replicas (s1.1, s2.1) are silent
	// collectors — prepare calls to them time out on the preferred replica
	// and on the alternate. The commit must fail, and every node a prepare
	// was sent to — including the local cohort that acknowledged — must be
	// released with AbortTx so no version clock stays pinned.
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.CallTimeout = 100 * time.Millisecond
	})
	s := rig.srv

	kLocal := keyForPartition(t, rig.topo, 0)
	kRemote := keyForPartition(t, rig.topo, 1)

	start := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	resp := s.handleCommit(wire.CommitReq{TxID: start.TxID, Writes: []wire.KV{
		{Key: kLocal, Value: []byte("v")},
		{Key: kRemote, Value: []byte("v")},
	}})
	e, ok := resp.(wire.ErrorResp)
	if !ok || e.Code != wire.CodeTxAborted {
		t.Fatalf("commit with unreachable cohort = %+v, want CodeTxAborted", resp)
	}

	if s.PendingPrepared() != 0 {
		t.Fatal("local prepared entry survived the abort")
	}
	if got := s.Metrics().TxAborted; got != 1 {
		t.Fatalf("TxAborted = %d, want 1", got)
	}
	if got := s.Metrics().CohortAborts; got != 1 {
		t.Fatalf("CohortAborts = %d, want 1 (the local cohort)", got)
	}
	// Both remote replicas got a prepare attempt and then its abort.
	for _, node := range []topology.NodeID{topology.ServerID(1, 1), topology.ServerID(2, 1)} {
		rig.peers[node].waitKind(t, wire.KindAbortTx, 1)
	}
	if s.ActiveTxContexts() != 0 {
		t.Fatal("aborted transaction's context not released")
	}
	if _, ok := s.Store().ReadLatest(kLocal); ok {
		t.Fatal("aborted transaction partially applied")
	}
}

func TestPrepareDedupsWriteSetLastWriterWins(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.handlePrepare(wire.PrepareReq{TxID: 5, HT: 10, Writes: []wire.KV{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: []byte("2")},
		{Key: "a", Value: []byte("3")},
		{Key: "a", Value: []byte("4")},
	}})
	tab := &s.twoPC
	tab.mu.Lock()
	p := tab.prepared[5]
	tab.mu.Unlock()
	if len(p.writes) != 2 {
		t.Fatalf("deduped write-set has %d entries, want 2", len(p.writes))
	}
	got := map[string]string{}
	for _, kv := range p.writes {
		got[kv.Key] = string(kv.Value)
	}
	if got["a"] != "4" || got["b"] != "2" {
		t.Fatalf("dedup kept %v, want last writer (a=4, b=2)", got)
	}
}

func TestDedupWritesLeavesCleanSetsAlone(t *testing.T) {
	in := []wire.KV{{Key: "x"}, {Key: "y"}}
	if out := dedupWrites(in); len(out) != 2 || &out[0] != &in[0] {
		t.Fatal("duplicate-free write-set must be returned as-is")
	}
	if out := dedupWrites(nil); out != nil {
		t.Fatal("nil write-set must stay nil")
	}
}

func TestReaperRecoversLostCommitSelfCoordinated(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// A prepared entry whose transaction this server itself coordinated and
	// decided: the CohortCommit was "lost", but the decision memory has it.
	id := wire.NewTxID(0, 0, 5) // coordinator == s0.0 == self
	s.handlePrepare(wire.PrepareReq{TxID: id, HT: 100,
		Writes: []wire.KV{{Key: "recov", Value: []byte("v")}}})
	tab := &s.twoPC
	tab.mu.Lock()
	tab.decideLocked(id, decidedTx{ct: 12345, at: s.label(), acked: []topology.NodeID{s.self}})
	tab.mu.Unlock()
	agePrepared(s, time.Hour)

	s.reapTick()
	if s.PendingPrepared() != 0 || s.PendingCommitted() != 1 {
		t.Fatalf("recovery: prepared=%d committed=%d, want 0/1",
			s.PendingPrepared(), s.PendingCommitted())
	}
	if got := s.Metrics().CommitsRecovered; got != 1 {
		t.Fatalf("CommitsRecovered = %d, want 1", got)
	}
	if got := s.Metrics().TxReaped; got != 0 {
		t.Fatalf("TxReaped = %d, want 0 (the commit must not count as a reap)", got)
	}
	// The recovered transaction applies at its true commit timestamp.
	rig.clk.Advance(20000)
	s.nextRound()
	item, ok := s.Store().ReadLatest("recov")
	if !ok || item.UT != 12345 {
		t.Fatalf("recovered write = %+v ok=%v, want ut 12345", item, ok)
	}
}

func TestReaperWaitsWhileCoordinatorStillDeciding(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// Self-coordinated transaction still holding its context (e.g. a slow
	// sequential prepare failover on another partition): the reaper must
	// hold off rather than reap a transaction that may yet commit.
	start := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	s.handlePrepare(wire.PrepareReq{TxID: start.TxID, HT: 100,
		Writes: []wire.KV{{Key: "slow", Value: []byte("v")}}})
	agePrepared(s, time.Hour)

	s.reapTick()
	if s.PendingPrepared() != 1 {
		t.Fatal("reaper aborted a transaction whose coordinator is still deciding")
	}
	// Once the context is gone with no decision, the entry is reaped.
	s.handleFinishTx(wire.FinishTx{TxID: start.TxID})
	s.reapTick()
	if s.PendingPrepared() != 0 {
		t.Fatal("undecided orphan not reaped after its context vanished")
	}
}

func TestReaperHardDeadlineWithSilentCoordinator(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// Remote coordinator (a collector that never answers status queries):
	// entries past the soft TTL are held, entries past 2×TTL are reaped
	// unconditionally so a crashed coordinator stalls the UST for a bounded
	// time only.
	id := wire.NewTxID(1, 0, 3) // coordinator s1.0, silent
	s.handlePrepare(wire.PrepareReq{TxID: id, HT: 100,
		Writes: []wire.KV{{Key: "hard", Value: []byte("v")}}})
	agePrepared(s, 3*s.cfg.PreparedTTL)

	s.reapTick()
	if s.PendingPrepared() != 0 {
		t.Fatal("entry past the hard deadline not reaped")
	}
	if s.AbortedCount() != 1 || s.Metrics().TxReaped != 1 {
		t.Fatal("hard-deadline reap not tombstoned/counted")
	}
}

// newCommitServers wires real servers with the given ids, none started,
// into one MemNet for status-query and commit tests. wrap, when not nil,
// stands between the network and each server's peer.
func newCommitServers(t *testing.T, callTimeout time.Duration, wrap func(*transport.MemNet, transport.Handler) transport.Handler,
	ids ...topology.NodeID) (*transport.MemNet, []*Server) {
	t.Helper()
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet(nil)
	t.Cleanup(func() { _ = net.Close() })
	srvs := make([]*Server, len(ids))
	for i, id := range ids {
		srv, err := New(Config{ID: id, Topology: topo, Mode: ModeNonBlocking, CallTimeout: callTimeout})
		if err != nil {
			t.Fatal(err)
		}
		var h transport.Handler = srv.Peer()
		if wrap != nil {
			h = wrap(net, h)
		}
		ep, err := net.Register(id, h)
		if err != nil {
			t.Fatal(err)
		}
		srv.Peer().Attach(ep)
		t.Cleanup(srv.Stop)
		srvs[i] = srv
	}
	return net, srvs
}

// loseCohortCommits stands between the network and a server's peer and
// loses every CohortCommit: the decision a coordinator casts to its remote
// cohorts never arrives.
func loseCohortCommits(_ *transport.MemNet, h transport.Handler) transport.Handler {
	return transport.HandlerFunc(func(env transport.Envelope) {
		if env.Msg.Kind() != wire.KindCohortCommit {
			h.Deliver(env)
		}
	})
}

// newCoordinatorAndCohort wires a coordinator (DC 0, partition 0) and its
// preferred replica of partition 1 (DC 1), whose CohortCommit casts are lost.
func newCoordinatorAndCohort(t *testing.T) (coord, cohort *Server) {
	t.Helper()
	_, srvs := newCommitServers(t, 2*time.Second, loseCohortCommits, topology.ServerID(0, 0), topology.ServerID(1, 1))
	return srvs[0], srvs[1]
}

func TestReaperRecoversLostCommitViaStatusQuery(t *testing.T) {
	coord, cohort := newCoordinatorAndCohort(t)

	// The coordinator runs a real two-partition commit, so it holds the
	// decision in its memory. The cohort acknowledged its prepare, and the
	// CohortCommit cast was then lost.
	topo := coord.cfg.Topology
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	cresp := coord.handleCommit(wire.CommitReq{TxID: start.TxID, Writes: []wire.KV{
		{Key: keyForPartition(t, topo, 0), Value: []byte("v")},
		{Key: keyForPartition(t, topo, 1), Value: []byte("lost")}}})
	ct := cresp.(wire.CommitResp).CommitTS
	if cohort.PendingPrepared() != 1 {
		t.Fatalf("cohort holds %d prepared entries, want 1", cohort.PendingPrepared())
	}
	agePrepared(cohort, cohort.cfg.PreparedTTL+time.Second)

	cohort.applyTick(1, 1) // the first round's sweep queries the coordinator
	awaitReplies(t, cohort)
	cohort.applyTick(2, 2) // and the next round acts on the answer
	if cohort.PendingCommitted() != 1 {
		t.Fatal("lost commit not recovered via status query")
	}
	if cohort.PendingPrepared() != 0 {
		t.Fatal("recovered entry still prepared")
	}
	if got := cohort.Metrics().CommitsRecovered; got != 1 {
		t.Fatalf("CommitsRecovered = %d, want 1", got)
	}
	tab := &cohort.twoPC
	tab.mu.Lock()
	recoveredCT := tab.committed[0].ct
	tab.mu.Unlock()
	if recoveredCT != ct {
		t.Fatalf("recovered at %v, want the coordinator's decision %v", recoveredCT, ct)
	}

	// A transaction the coordinator never saw resolves to unknown → reaped.
	ghost := wire.NewTxID(0, 0, 999)
	cohort.handlePrepare(wire.PrepareReq{TxID: ghost, HT: 100,
		Writes: []wire.KV{{Key: "ghost", Value: []byte("v")}}})
	agePrepared(cohort, cohort.cfg.PreparedTTL+time.Second)
	sweep := 1 + cohort.cfg.rounds(cohort.cfg.PreparedTTL/4) // the reaper's next sweep
	cohort.applyTick(sweep, sweep)
	awaitReplies(t, cohort)
	cohort.applyTick(sweep+1, sweep+1)
	if cohort.PendingPrepared() != 0 {
		t.Fatal("unknown orphan not reaped after status query")
	}
	if got := cohort.Metrics().TxReaped; got != 1 {
		t.Fatalf("TxReaped = %d, want 1", got)
	}
}

// reapsAsStraggler ages the cohort's one prepared entry, lets its reaper ask
// the coordinator, and requires it released without a commit.
func reapsAsStraggler(t *testing.T, cohort *Server) {
	t.Helper()
	if cohort.PendingPrepared() != 1 {
		t.Fatalf("cohort holds %d prepared entries, want 1", cohort.PendingPrepared())
	}
	agePrepared(cohort, cohort.cfg.PreparedTTL+time.Second)
	cohort.applyTick(1, 1) // the first round's sweep queries the coordinator
	awaitReplies(t, cohort)
	cohort.applyTick(2, 2) // and the next round acts on the answer
	if cohort.PendingPrepared() != 0 {
		t.Fatal("superseded prepare not released")
	}
	if cohort.PendingCommitted() != 0 {
		t.Fatal("superseded cohort applied a transaction committed elsewhere")
	}
	if got := cohort.Metrics().CommitsRecovered; got != 0 {
		t.Fatalf("CommitsRecovered = %d, want 0", got)
	}
	if got := cohort.Metrics().TxReaped; got != 1 {
		t.Fatalf("TxReaped = %d, want 1", got)
	}
}

func TestSupersededCohortReapsCommittedTransaction(t *testing.T) {
	// A replica whose prepare was superseded by a failover alternate (its
	// PrepareResp — and the follow-up AbortTx — were lost) must NOT recover
	// the commit: only the acked cohort may apply, or two replicas of one
	// partition would both apply (and re-replicate) the same transaction.
	// Here the coordinator's link to the preferred replica of partition 1
	// refuses the prepare, which fails over to the DC 2 replica; the
	// straggler entry is then planted on the preferred one.
	net, srvs := newCommitServers(t, 2*time.Second, loseCohortCommits,
		topology.ServerID(0, 0), topology.ServerID(1, 1), topology.ServerID(2, 1))
	coord, cohort, alt := srvs[0], srvs[1], srvs[2]
	topo := coord.cfg.Topology
	net.SetLinkFault(coord.self, cohort.self, transport.FaultError)
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	if _, ok := coord.handleCommit(wire.CommitReq{TxID: start.TxID, Writes: []wire.KV{
		{Key: keyForPartition(t, topo, 0), Value: []byte("v")},
		{Key: keyForPartition(t, topo, 1), Value: []byte("v")}}}).(wire.CommitResp); !ok {
		t.Fatal("commit failed")
	}
	if alt.PendingPrepared() != 1 {
		t.Fatal("the prepare did not fail over to the DC 2 replica")
	}
	net.SetLinkFault(coord.self, cohort.self, transport.FaultNone)
	cohort.handlePrepare(wire.PrepareReq{TxID: start.TxID, HT: 100,
		Writes: []wire.KV{{Key: "straggler", Value: []byte("v")}}})
	reapsAsStraggler(t, cohort)
}

// TestSoleCommitStragglerIsReaped is the one-partition twin: a transaction
// that wrote only the coordinator's own partition committed there without a
// decision record, so a stray prepared entry for its id elsewhere is
// unknown to the coordinator and is reaped, never applied.
func TestSoleCommitStragglerIsReaped(t *testing.T) {
	coord, cohort := newCoordinatorAndCohort(t)
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	coord.handleCommit(wire.CommitReq{TxID: start.TxID,
		Writes: []wire.KV{{Key: keyForPartition(t, coord.cfg.Topology, 0), Value: []byte("v")}}})
	cohort.handlePrepare(wire.PrepareReq{TxID: start.TxID, HT: 100,
		Writes: []wire.KV{{Key: "straggler", Value: []byte("v")}}})
	reapsAsStraggler(t, cohort)
}

func TestStatusPendingSurvivesContextEviction(t *testing.T) {
	// While the prepare fan-out is in flight, a status query must answer
	// Pending even if the transaction context was TTL-evicted meanwhile — a
	// long failover chain can outlive TxContextTTL, and answering Unknown
	// would let a cohort reap a transaction that is about to commit.
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.CallTimeout = 300 * time.Millisecond
	})
	s := rig.srv

	kLocal := keyForPartition(t, rig.topo, 0)
	kRemote := keyForPartition(t, rig.topo, 1) // replicas are silent collectors
	start := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)

	done := make(chan wire.Message, 1)
	go func() {
		done <- s.handleCommit(wire.CommitReq{TxID: start.TxID, Writes: []wire.KV{
			{Key: kLocal, Value: []byte("v")},
			{Key: kRemote, Value: []byte("v")},
		}})
	}()
	// Wait until the local cohort has prepared (the fan-out is running).
	deadline := time.Now().Add(2 * time.Second)
	for s.PendingPrepared() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fan-out never parked the local prepare")
		}
		time.Sleep(time.Millisecond)
	}
	// Simulate the context-TTL eviction racing the fan-out.
	s.txCtx.delete(start.TxID)

	resp := s.handleTxStatus(topology.ServerID(1, 1), wire.TxStatusReq{TxID: start.TxID})
	if st := resp.(wire.TxStatusResp); st.Status != wire.TxStatusPending {
		t.Fatalf("mid-commit status = %v, want pending", st.Status)
	}

	// After the fan-out settles (abort, here), the same query gets the
	// decision instead.
	<-done
	resp = s.handleTxStatus(topology.ServerID(1, 1), wire.TxStatusReq{TxID: start.TxID})
	if st := resp.(wire.TxStatusResp); st.Status != wire.TxStatusAborted {
		t.Fatalf("post-abort status = %v, want aborted", st.Status)
	}
}

// slowCohort stands in for a remote cohort that is reachable but slow: it
// answers every prepare after delay and records the transactions it prepared
// and the decisions it was sent.
type slowCohort struct {
	ep    transport.Endpoint
	delay time.Duration

	mu        sync.Mutex
	prepared  map[wire.TxID]bool
	committed map[wire.TxID]bool
	aborted   map[wire.TxID]bool
}

func newSlowCohort(delay time.Duration) *slowCohort {
	return &slowCohort{
		delay:     delay,
		prepared:  make(map[wire.TxID]bool),
		committed: make(map[wire.TxID]bool),
		aborted:   make(map[wire.TxID]bool),
	}
}

func (c *slowCohort) Deliver(env transport.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := env.Msg.(type) {
	case wire.PrepareReq:
		c.prepared[m.TxID] = true
		c.answer(env, wire.PrepareResp{TxID: m.TxID, Proposed: m.HT})
	case wire.CohortCommit:
		c.committed[m.TxID] = true
	case wire.AbortTx:
		c.aborted[m.TxID] = true
	}
}

func (c *slowCohort) answer(req transport.Envelope, resp wire.Message) {
	time.AfterFunc(c.delay, func() {
		_ = c.ep.Send(transport.Envelope{To: req.From, Class: transport.ClassResponse,
			RequestID: req.RequestID, Msg: resp})
	})
}

// undecided names a transaction the cohort prepared but got no decision
// for, or one of acked it was not told to commit; "" when there is none.
func (c *slowCohort) undecided(acked map[wire.TxID]bool) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.prepared {
		if !c.committed[id] && !c.aborted[id] {
			return fmt.Sprintf("tx %v prepared and never decided", id)
		}
		if acked[id] && !c.committed[id] {
			return fmt.Sprintf("tx %v acknowledged to its client but not committed here", id)
		}
	}
	return ""
}

// TestStopDecidesInFlightCommits: stopping a coordinator while its commits
// wait on a slow but reachable cohort fails their pending prepares at once,
// and every transaction that reached the cohort still gets its decision — an
// AbortTx for one whose prepare was cut off, a CohortCommit for one its
// client was told committed. A closed peer would refuse those casts, and the
// cohort would hold its entry until the reaper gave up on the coordinator
// (2×PreparedTTL), freezing the UST meanwhile, or lose an acknowledged
// transaction's slice.
func TestStopDecidesInFlightCommits(t *testing.T) {
	const callTimeout = 5 * time.Second
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) { c.CallTimeout = callTimeout })
	s := rig.srv
	var cohorts []*slowCohort
	for _, dc := range rig.topo.ReplicaDCs(1) {
		id := topology.ServerID(dc, 1)
		rig.net.Deregister(id)
		c := newSlowCohort(2 * time.Millisecond)
		ep, err := rig.net.Register(id, c)
		if err != nil {
			t.Fatal(err)
		}
		c.ep = ep
		cohorts = append(cohorts, c)
	}
	writes := []wire.KV{
		{Key: keyForPartition(t, rig.topo, 0), Value: []byte("v")},
		{Key: keyForPartition(t, rig.topo, 1), Value: []byte("v")},
	}

	var (
		mu    sync.Mutex
		acked = make(map[wire.TxID]bool)
		wg    sync.WaitGroup
	)
	from := topology.ClientID(0, 0)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := make(chan wire.Message, 1)
			reply := func(m wire.Message) { resp <- m }
			for {
				s.HandleRequest(from, wire.StartTxReq{}, reply)
				start, ok := (<-resp).(wire.StartTxResp)
				if !ok {
					return // stopped
				}
				s.HandleRequest(from, wire.CommitReq{TxID: start.TxID, Writes: writes}, reply)
				switch m := (<-resp).(type) {
				case wire.CommitResp:
					mu.Lock()
					acked[m.TxID] = true
					mu.Unlock()
				case wire.ErrorResp:
					if m.Code == wire.CodeShuttingDown {
						return
					}
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 8 && s.Peer().Pending() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no commit in flight: %d acknowledged, %d calls pending", n, s.Peer().Pending())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	s.Stop()
	if took := time.Since(start); took >= callTimeout/10 {
		t.Fatalf("Stop took %v with prepares pending, want well under CallTimeout (%v)", took, callTimeout)
	}
	wg.Wait()

	deadline = time.Now().Add(2 * time.Second)
	for _, c := range cohorts {
		for {
			msg := c.undecided(acked)
			if msg == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
