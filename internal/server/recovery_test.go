package server

import (
	"context"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// TestRecoveredPrepareResolvesAfterRestart pins the crash window the nemesis
// crash_restart scenario surfaced: a cohort acks a prepare, the coordinator
// decides commit, and the cohort dies while the CohortCommit cast is in
// flight. The cast was accepted (not refused), so the coordinator never opens
// a commit confirmation (a CommitRecover inquiry) — the decision must instead
// be recovered by the restarted cohort replaying its 2PC log: the exported
// prepared entry re-pins the version clock and the reaper sweep of the
// restarted server's first round queries the coordinator's decision memory,
// which promotes the entry at its true commit timestamp. Before TwoPCExport
// the prepared entry died with the process and the acked slice was silently
// lost forever. With a PreparedTTL of 10 s the reaper's next sweep is 2 500
// rounds away, so a resolution before then was the first round's.
func TestRecoveredPrepareResolvesAfterRestart(t *testing.T) {
	for _, ttl := range []time.Duration{100 * time.Millisecond, 10 * time.Second} {
		t.Run(ttl.String(), func(t *testing.T) { testRecoveredPrepareResolves(t, ttl) })
	}
}

func testRecoveredPrepareResolves(t *testing.T, ttl time.Duration) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet(nil)
	defer func() { _ = net.Close() }()

	newServer := func(id topology.NodeID, st Config) *Server {
		st.ID, st.Topology, st.Mode = id, topo, ModeNonBlocking
		st.ApplyInterval = time.Millisecond
		st.CallTimeout = 100 * time.Millisecond
		st.PreparedTTL = ttl
		srv, err := New(st)
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

	coord := newServer(topology.ServerID(0, 0), Config{})
	t.Cleanup(coord.Stop)
	cohortID := topology.ServerID(1, 1)
	cohort := newServer(cohortID, Config{})

	// Prepare on the cohort; it acks and holds the entry.
	key := keysOn(t, topo, topology.PartitionID(1), 1)[0]
	id := wire.NewTxID(coord.self.DC, coord.self.Partition(), 42)
	resp, err := coord.peer.CallTimeout(context.Background(), cohortID, wire.PrepareReq{
		TxID: id, HT: coord.clock.Now(),
		Writes: []wire.KV{{Key: key, Value: []byte("recovered")}},
	}, coord.cfg.CallTimeout)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	pr, ok := resp.(wire.PrepareResp)
	if !ok {
		t.Fatalf("prepare answered %#v", resp)
	}
	if got := cohort.PendingPrepared(); got != 1 {
		t.Fatalf("cohort holds %d prepared entries, want 1", got)
	}

	// The coordinator decides commit — its decision memory now holds the
	// fate — but the cohort crashes before any CohortCommit can arrive.
	ct := pr.Proposed
	tab := &coord.twoPC
	tab.mu.Lock()
	tab.decideLocked(id, decidedTx{ct: ct, at: coord.label(), acked: []topology.NodeID{cohortID}})
	tab.mu.Unlock()

	net.Deregister(cohortID)
	cohort.Stop()

	ex := cohort.ExportTwoPC()

	// Restart over the crashed instance's store and 2PC log.
	restarted := newServer(cohortID, Config{Store: cohort.Store(), Recovered2PC: ex})
	t.Cleanup(restarted.Stop)
	started := restarted.label()

	// The rounds are driven by hand: the first one's sweep asks the
	// coordinator, and the next acts on its answer.
	restarted.applyTick(1, 1)
	awaitReplies(t, restarted)
	restarted.applyTick(2, 2)
	if m := restarted.Metrics(); m.CommitsRecovered < 1 || restarted.PendingPrepared() != 0 {
		t.Fatalf("recovered prepare not resolved in the round after the query: metrics=%+v prepared=%d",
			m, restarted.PendingPrepared())
	}
	if every, took := restarted.cfg.rounds(ttl/4), restarted.label()-started; ttl >= 10*time.Second && took >= every {
		t.Fatalf("recovered prepare resolved %d rounds after the restart, not by the first reaper sweep (every %d rounds)", took, every)
	}

	// The slice is installed at its true commit timestamp, and readable, by
	// the round after that.
	restarted.applyTick(3, 3)
	item, found := restarted.Store().Read(key, hlc.MaxTimestamp)
	if !found {
		t.Fatal("recovered commit not applied to the store by the next round")
	}
	if string(item.Value) != "recovered" || item.UT != ct || item.TxID != id {
		t.Fatalf("recovered item = %+v, want value %q at ct=%v id=%v",
			item, "recovered", ct, id)
	}
}

// TestExportTwoPCCarriesTombstones pins the other half of the 2PC log: an
// abort tombstone survives the crash, so a straggling CommitRecover retry
// for a transaction the cohort reaped before dying is still rejected after
// the restart instead of planting a version inside already-served snapshots.
func TestExportTwoPCCarriesTombstones(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ID: topology.ServerID(1, 1), Topology: topo, Mode: ModeNonBlocking})
	if err != nil {
		t.Fatal(err)
	}
	id := wire.NewTxID(0, 0, 7)
	srv.handleAbortTx(wire.AbortTx{TxID: id})
	srv.Stop()

	restarted, err := New(Config{ID: topology.ServerID(1, 1), Topology: topo,
		Mode: ModeNonBlocking, Store: srv.Store(), Recovered2PC: srv.ExportTwoPC()})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()

	resp := restarted.handleCommitRecover(wire.CommitRecover{
		TxID: id, CommitTS: restarted.clock.Now(),
		Writes: []wire.KV{{Key: "x", Value: []byte("stale")}},
	})
	st, ok := resp.(wire.TxStatusResp)
	if !ok || st.Status != wire.TxStatusAborted {
		t.Fatalf("CommitRecover for a pre-crash tombstoned tx answered %#v, want aborted", resp)
	}
}
