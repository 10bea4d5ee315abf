package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TestCommitPlaneParallelApplyStress hammers the commit plane — the 2PC
// table and the pipelined multi-worker apply — from every direction at once:
// concurrent cohort prepares and commits, the apply loop draining with
// parallel store workers, replication heartbeats advancing the remote
// version-vector entry, and the abort path planting tombstones. Under -race
// it guards the one-lock rule of the round's bound and drain (collectReady)
// and the apply sequencer.
//
// Invariants asserted while the storm runs:
//
//   - VV[self] never regresses (the per-round sequencer publishes in order);
//   - snapshot stability: a read at a snapshot at or below the installed
//     lower bound is repeatable — no write below a published bound lands
//     late (the "no committed write visible before VV[self] covers it"
//     guarantee, phrased operationally);
//   - nothing is lost: after the storm drains, every committed write is in
//     the store at or below VV[self].
func TestCommitPlaneParallelApplyStress(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	s.applyWorkers = 4

	keys := keysOn(t, rig.topo, s.self.Partition(), 8)
	remote := topology.DCID(-1)
	for _, dc := range rig.topo.ReplicaDCs(s.self.Partition()) {
		if dc != s.self.DC {
			remote = dc
		}
	}
	if remote < 0 {
		t.Fatal("partition has no remote replica DC")
	}

	const (
		writers = 4
		iters   = 250
	)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)

	// The apply loop, driven hard rather than on its ΔR ticker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.nextRound()
		}
	}()

	// Remote replication stand-in: heartbeats advance vv[remote] so the
	// installed lower bound tracks the local clock instead of pinning at
	// the remote entry's floor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{SrcDC: remote, UpTo: s.clock.Now(), Round: uint64(s.stab.round.Load())}))
		}
	}()

	// VV[self] monotonicity watcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last hlc.Timestamp
		for !stop.Load() {
			vv := s.vv[s.self.DC].Load()
			if vv < last {
				t.Errorf("VV[self] regressed: %v after %v", vv, last)
				return
			}
			last = vv
		}
	}()

	// Snapshot stability checker: anything readable at a snapshot at or
	// below the installed bound must stay exactly as read — a difference
	// means a committed write became visible below an already-published
	// bound.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := s.installedLowerBound()
			for _, k := range keys {
				v1, ok1 := s.store.Read(k, snap)
				runtime.Gosched()
				v2, ok2 := s.store.Read(k, snap)
				if ok1 != ok2 || (ok1 && (v1.UT != v2.UT || v1.TxID != v2.TxID)) {
					t.Errorf("snapshot %v unstable on %q: (%v,%v) then (%v,%v)",
						snap, k, v1.UT, ok1, v2.UT, ok2)
					return
				}
			}
		}
	}()

	// Writers: remote-coordinated prepare→commit pairs, with a sprinkling of
	// aborts exercising the tombstone path.
	var (
		seq      atomic.Uint64
		writerWG sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				id := wire.NewTxID(remote, s.self.Partition(), seq.Add(1))
				resp := s.handlePrepare(wire.PrepareReq{TxID: id, HT: s.clock.Now(),
					Writes: []wire.KV{{Key: keys[(w*iters+i)%len(keys)], Value: []byte("v")}}})
				pr, ok := resp.(wire.PrepareResp)
				if !ok {
					t.Errorf("writer %d: prepare %v failed: %+v", w, id, resp)
					return
				}
				if i%16 == 15 {
					s.handleAbortTx(wire.AbortTx{TxID: id})
					continue
				}
				s.handleCohortCommit(wire.CohortCommit{TxID: id, CommitTS: pr.Proposed})
			}
		}(w)
	}
	writerWG.Wait()

	// Drain: the apply goroutine is still running; wait for the pipeline to
	// empty.
	deadline := time.Now().Add(10 * time.Second)
	for s.PendingCommitted() > 0 || s.PendingPrepared() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: prepared=%d committed=%d",
				s.PendingPrepared(), s.PendingCommitted())
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	// Every key took at least one committed write, all applied at or below
	// the published local version clock.
	s.nextRound()
	vv := s.vv[s.self.DC].Load()
	for _, k := range keys {
		it, ok := s.store.ReadLatest(k)
		if !ok {
			t.Fatalf("key %q lost: no version applied", k)
		}
		if it.UT > vv {
			t.Fatalf("key %q applied at %v above published VV[self] %v", k, it.UT, vv)
		}
	}
}
