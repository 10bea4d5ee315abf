package server

import (
	"fmt"
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

// agePrepared backdates every prepared entry on s by age, so reaper tests
// can cross the TTL without sleeping.
func agePrepared(s *Server, age time.Duration) {
	for i := range s.twoPC.shards {
		sh := &s.twoPC.shards[i]
		sh.mu.Lock()
		for _, p := range sh.prepared {
			p.at = time.Now().Add(-age)
		}
		sh.mu.Unlock()
	}
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
	sh := s.twoPC.shard(7)
	sh.mu.Lock()
	sh.aborted[7] = time.Now().Add(-24 * time.Hour)
	sh.mu.Unlock()
	s.ctxCleanupTick()
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
	sh := s.twoPC.shard(5)
	sh.mu.Lock()
	p := sh.prepared[5]
	sh.mu.Unlock()
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
	sh := s.twoPC.shard(id)
	sh.mu.Lock()
	sh.decided[id] = decidedTx{ct: 12345, at: time.Now(), acked: []topology.NodeID{s.self}}
	sh.mu.Unlock()
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

// twoServerRig wires two real servers (a cohort and a remote coordinator)
// into one MemNet for status-query tests.
func newCoordinatorAndCohort(t *testing.T) (coord, cohort *Server) {
	t.Helper()
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet(nil)
	t.Cleanup(func() { _ = net.Close() })
	for _, id := range []topology.NodeID{topology.ServerID(0, 0), topology.ServerID(1, 1)} {
		srv, err := New(Config{ID: id, Topology: topo, Mode: ModeNonBlocking,
			CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Register(id, srv.Peer())
		if err != nil {
			t.Fatal(err)
		}
		srv.Peer().Attach(ep)
		t.Cleanup(srv.Stop)
		if id == topology.ServerID(0, 0) {
			coord = srv
		} else {
			cohort = srv
		}
	}
	return coord, cohort
}

func TestReaperRecoversLostCommitViaStatusQuery(t *testing.T) {
	coord, cohort := newCoordinatorAndCohort(t)

	// The coordinator runs a real single-partition commit (all local), so it
	// holds the decision in its memory.
	kLocal := keyForPartition(t, coord.cfg.Topology, 0)
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	cresp := coord.handleCommit(wire.CommitReq{TxID: start.TxID,
		Writes: []wire.KV{{Key: kLocal, Value: []byte("v")}}})
	ct := cresp.(wire.CommitResp).CommitTS

	// The cohort holds a prepared entry for the same transaction — as if its
	// prepare had been acknowledged and the CohortCommit cast was then lost.
	// Mark it acked in the coordinator's decision memory accordingly.
	csh := coord.twoPC.shard(start.TxID)
	csh.mu.Lock()
	d := csh.decided[start.TxID]
	d.acked = append(d.acked, cohort.self)
	csh.decided[start.TxID] = d
	csh.mu.Unlock()
	cohort.handlePrepare(wire.PrepareReq{TxID: start.TxID, HT: 100,
		Writes: []wire.KV{{Key: "lost", Value: []byte("v")}}})
	agePrepared(cohort, cohort.cfg.PreparedTTL+time.Second)

	cohort.reapTick() // queries the coordinator asynchronously
	deadline := time.Now().Add(5 * time.Second)
	for cohort.PendingCommitted() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("lost commit not recovered via status query")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cohort.PendingPrepared() != 0 {
		t.Fatal("recovered entry still prepared")
	}
	if got := cohort.Metrics().CommitsRecovered; got != 1 {
		t.Fatalf("CommitsRecovered = %d, want 1", got)
	}
	ssh := cohort.twoPC.shard(start.TxID)
	ssh.mu.Lock()
	recoveredCT := ssh.committed[0].ct
	ssh.mu.Unlock()
	if recoveredCT != ct {
		t.Fatalf("recovered at %v, want the coordinator's decision %v", recoveredCT, ct)
	}

	// A transaction the coordinator never saw resolves to unknown → reaped.
	ghost := wire.NewTxID(0, 0, 999)
	cohort.handlePrepare(wire.PrepareReq{TxID: ghost, HT: 100,
		Writes: []wire.KV{{Key: "ghost", Value: []byte("v")}}})
	agePrepared(cohort, cohort.cfg.PreparedTTL+time.Second)
	cohort.reapTick()
	deadline = time.Now().Add(5 * time.Second)
	for cohort.PendingPrepared() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown orphan not reaped after status query")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := cohort.Metrics().TxReaped; got != 1 {
		t.Fatalf("TxReaped = %d, want 1", got)
	}
}

func TestSupersededCohortReapsCommittedTransaction(t *testing.T) {
	// A replica whose prepare was superseded by a failover alternate (its
	// PrepareResp — and the follow-up AbortTx — were lost) must NOT recover
	// the commit: only the acked cohort may apply, or two replicas of one
	// partition would both apply and re-replicate the same transaction.
	coord, cohort := newCoordinatorAndCohort(t)

	kLocal := keyForPartition(t, coord.cfg.Topology, 0)
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	coord.handleCommit(wire.CommitReq{TxID: start.TxID,
		Writes: []wire.KV{{Key: kLocal, Value: []byte("v")}}})
	// The decision's acked set holds only the coordinator itself; the cohort
	// below is a superseded straggler.
	cohort.handlePrepare(wire.PrepareReq{TxID: start.TxID, HT: 100,
		Writes: []wire.KV{{Key: "straggler", Value: []byte("v")}}})
	agePrepared(cohort, cohort.cfg.PreparedTTL+time.Second)

	cohort.reapTick()
	deadline := time.Now().Add(5 * time.Second)
	for cohort.PendingPrepared() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("superseded prepare not released")
		}
		time.Sleep(2 * time.Millisecond)
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
