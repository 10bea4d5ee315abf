package server

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// These tests pin the sole-cohort commit — a transaction that writes one
// partition commits in its one prepare call — and the twoPCTable critical
// section its correctness, and that of every Prepared→Committed move, rests
// on.

// TestSoleCommitLocalIsOneCall: on the coordinator's own replica the sole
// commit is one direct call that leaves the transaction on the Committed
// queue at the timestamp the client is told, with no prepared entry, no
// decision record and no in-flight marker behind it.
func TestSoleCommitLocalIsOneCall(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	resp := s.handleCommit(wire.CommitReq{Writes: []wire.KV{{Key: keyForPartition(t, rig.topo, 0), Value: []byte("v")}}})
	cr, ok := resp.(wire.CommitResp)
	if !ok {
		t.Fatalf("commit answered %#v", resp)
	}
	if s.PendingPrepared() != 0 || s.PendingCommitted() != 1 {
		t.Fatalf("%d prepared and %d committed, want 0 and 1", s.PendingPrepared(), s.PendingCommitted())
	}
	tab := &s.twoPC
	tab.mu.Lock()
	ct, decided, committing := tab.committed[0].ct, len(tab.decided), len(tab.committing)
	tab.mu.Unlock()
	if ct != cr.CommitTS || decided != 0 || committing != 0 {
		t.Fatalf("committed at %v (client told %v), %d decisions, %d in flight; want equal, 0, 0",
			ct, cr.CommitTS, decided, committing)
	}
	for node, peer := range rig.peers {
		if n := len(peer.byKind(wire.KindPrepareReq)) + len(peer.byKind(wire.KindCohortCommit)); n != 0 {
			t.Fatalf("%v was sent %d 2PC messages for a local one-partition commit", node, n)
		}
	}
	if s.txCtx.contains(cr.TxID) {
		t.Fatal("the context outlived the commit")
	}
}

// TestSoleCommitLostOnLinkDoesNotFailOver: the link to the sole cohort
// silently drops the prepare, or the cohort's answer to it. Either way the
// call times out with the outcome unknown — the cohort may have committed —
// so the coordinator must not fail over to the other replica, which would
// commit the same writes a second time at a second timestamp. The client
// hears CodeUnavailable, a retry of the id is refused, and across both
// replicas the transaction commits at most once.
func TestSoleCommitLostOnLinkDoesNotFailOver(t *testing.T) {
	for _, lost := range []string{"request", "response"} {
		t.Run(lost, func(t *testing.T) {
			coordID, cohortID := topology.ServerID(0, 0), topology.ServerID(1, 1)
			dropAnswers := func(net *transport.MemNet, h transport.Handler) transport.Handler {
				return transport.HandlerFunc(func(env transport.Envelope) {
					if lost == "response" && env.Msg.Kind() == wire.KindPrepareReq {
						net.SetLinkFault(cohortID, coordID, transport.FaultBlackhole)
					}
					h.Deliver(env)
				})
			}
			net, srvs := newCommitServers(t, 20*time.Millisecond, dropAnswers, coordID, cohortID, topology.ServerID(2, 1))
			coord, cohort, alt := srvs[0], srvs[1], srvs[2]
			if lost == "request" {
				net.SetLinkFault(coordID, cohortID, transport.FaultBlackhole)
			}
			key := keyForPartition(t, coord.cfg.Topology, 1)
			req := wire.CommitReq{Writes: []wire.KV{{Key: key, Value: []byte("v")}}}
			resp := coord.handleCommit(req)
			er, ok := resp.(wire.ErrorResp)
			if !ok || er.Code != wire.CodeUnavailable || !strings.Contains(er.Msg, "outcome unknown") {
				t.Fatalf("commit answered %#v, want an unknown outcome (CodeUnavailable)", resp)
			}
			if n, f := alt.Metrics().Prepares, coord.Metrics().PrepareFailovers; n != 0 || f != 0 {
				t.Fatalf("the alternate replica processed %d prepares (%d failovers), want none", n, f)
			}
			if coord.Metrics().TxCommitted != 0 {
				t.Fatal("an unknown outcome was counted as a commit")
			}

			// The transaction started with the commit; its id is the only one
			// the coordinator handed out. A retry under it is refused.
			id := wire.NewTxID(coordID.DC, coordID.Partition(), coord.txSeq.Load())
			req.TxID = id
			if er, ok := coord.handleCommit(req).(wire.ErrorResp); !ok || er.Code != wire.CodeUnknownTx {
				t.Fatalf("a retry of %v was not refused as unknown", id)
			}

			want := 0
			if lost == "response" {
				want = 1 // the prepare arrived: the cohort decided alone
			}
			for r := int64(1); r <= 2; r++ {
				cohort.applyTick(r, r)
				alt.applyTick(r, r)
			}
			if got := int(cohort.Metrics().Prepares + alt.Metrics().Prepares); got != want {
				t.Fatalf("%d sole prepares processed across the replicas, want %d", got, want)
			}
			if got := cohort.store.VersionCount(key); got != want {
				t.Fatalf("the cohort holds %d versions of the write, want %d", got, want)
			}
			if alt.PendingCommitted() != 0 || alt.PendingPrepared() != 0 {
				t.Fatal("the alternate replica holds the transaction")
			}
		})
	}
}

// TestSolePrepareRefusesTombstonedID: a sole prepare for an id this cohort
// already aborted is refused, and nothing is committed — not on the queue,
// not in the store.
func TestSolePrepareRefusesTombstonedID(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	id := wire.NewTxID(1, 0, 7)
	key := keyForPartition(t, rig.topo, 0)
	s.handleAbortTx(wire.AbortTx{TxID: id})
	resp := s.handlePrepare(wire.PrepareReq{TxID: id, HT: 100, Sole: true,
		Writes: []wire.KV{{Key: key, Value: []byte("v")}}})
	if er, ok := resp.(wire.ErrorResp); !ok || er.Code != wire.CodeTxAborted {
		t.Fatalf("sole prepare of a tombstoned id answered %#v, want CodeTxAborted", resp)
	}
	if s.PendingCommitted() != 0 || s.PendingPrepared() != 0 {
		t.Fatalf("%d committed and %d prepared after the refusal, want none", s.PendingCommitted(), s.PendingPrepared())
	}
	s.nextRound()
	if _, ok := s.store.ReadLatest(key); ok {
		t.Fatal("the refused write was applied")
	}
}

// TestScanNeverMissesMovedCommit races the apply round's bound and drain
// (collectReady) against every way an entry reaches the Committed queue,
// taken in turn by one mover: a prepare moved by CohortCommit, one moved by
// CommitRecover, and a sole prepare committed in place. After each scan, no
// entry at or below the bound it published may be left on the Committed
// queue: the round would publish VV[self] = ub without having applied it. A
// move, or a sole commit's timestamp, that fell outside the 2PC table's
// critical section would leave a window in which a scan sees neither the pin
// nor the entry. Such windows are a few instructions wide and show only when
// the mover is descheduled inside one, so goroutines that burn the CPUs and
// a collector that runs all the time keep descheduling it. There is one
// mover because a second one's prepared entry would pin the bound below the
// first one's commit and hide the miss.
func TestScanNeverMissesMovedCommit(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	key := keyForPartition(t, rig.topo, 0)
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		moved atomic.Int64
	)
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	for b := 0; b < runtime.GOMAXPROCS(0); b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes := []wire.KV{{Key: key, Value: []byte("v")}}
		for i := 1; !stop.Load(); i++ {
			id := wire.NewTxID(1, 0, uint64(i))
			pr, ok := s.handlePrepare(wire.PrepareReq{TxID: id, Writes: writes, Sole: i%3 == 2}).(wire.PrepareResp)
			if !ok {
				t.Errorf("prepare %v refused", id)
				return
			}
			switch i % 3 {
			case 0:
				s.handleCohortCommit(wire.CohortCommit{TxID: id, CommitTS: pr.Proposed})
			case 1:
				s.handleCommitRecover(wire.CommitRecover{TxID: id, CommitTS: pr.Proposed})
			}
			moved.Add(1)
		}
	}()

	scans, missed := 0, 0
	for deadline := time.Now().Add(200 * time.Millisecond); missed == 0 && time.Now().Before(deadline); scans++ {
		ub, _ := s.collectReady()
		tab := &s.twoPC
		tab.mu.Lock()
		for _, c := range tab.committed {
			if c.ct <= ub {
				missed++
			}
		}
		tab.mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if missed > 0 {
		t.Fatalf("%d committed entries at or below a published bound were left behind (%d scans, %d moves)",
			missed, scans, moved.Load())
	}
	t.Logf("%d scans against %d moves", scans, moved.Load())
}
