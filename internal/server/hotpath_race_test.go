package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// TestSnapshotMonotonicityUnderConcurrency hammers the sharded context table
// and the lock-free UST from every direction at once — StartTx/Read/Commit
// sessions, piggybacked UST observations, the apply loop, the context
// cleaner and the prepared-transaction reaper — and asserts the invariants
// the old server-wide mutex used to enforce wholesale:
//
//   - session monotonicity: a StartTx carrying the session's last snapshot
//     as ClientUST is answered with a snapshot at least that high;
//   - snapshot containment: every item a read returns is within the
//     transaction's snapshot;
//   - causality: a commit timestamp is strictly above the snapshot it
//     depends on;
//   - global UST monotonicity under concurrent advancement.
//
// Run under -race this is the regression net for the sharded refactor.
func TestSnapshotMonotonicityUnderConcurrency(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	keys := keysOn(t, rig.topo, s.self.Partition(), 4)
	const (
		sessions = 4
		iters    = 300
	)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)

	// Stabilization stand-in: advance the UST steadily, as gossip would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := hlc.New(1001, 0); !stop.Load(); ts += 1 << hlc.LogicalBits {
			s.observeUST(ts)
		}
	}()

	// Background protocol loops, driven hard rather than on a ticker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.nextRound()
			s.ctxCleanupTick()
			s.reapTick()
		}
	}()

	// A global UST monotonicity watcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last hlc.Timestamp
		for !stop.Load() {
			ust := s.UST()
			if ust < last {
				t.Errorf("UST regressed: %v after %v", ust, last)
				return
			}
			last = ust
		}
	}()

	var sessionWG sync.WaitGroup
	for c := 0; c < sessions; c++ {
		sessionWG.Add(1)
		go func(c int) {
			defer sessionWG.Done()
			var lastSnapshot, lastCommit hlc.Timestamp
			for i := 0; i < iters; i++ {
				start, ok := s.handleStartTx(wire.StartTxReq{ClientUST: lastSnapshot}).(wire.StartTxResp)
				if !ok {
					t.Errorf("session %d: StartTx failed", c)
					return
				}
				if start.Snapshot < lastSnapshot {
					t.Errorf("session %d: snapshot regressed %v → %v", c, lastSnapshot, start.Snapshot)
					return
				}
				lastSnapshot = start.Snapshot

				switch resp := s.handleRead(wire.ReadReq{TxID: start.TxID, Keys: keys}).(type) {
				case wire.ReadResp:
					for _, it := range resp.Items {
						if it.UT > start.Snapshot {
							t.Errorf("session %d: read returned %v above snapshot %v", c, it.UT, start.Snapshot)
							return
						}
					}
				default:
					t.Errorf("session %d: read failed: %+v", c, resp)
					return
				}

				if i%4 == 3 {
					resp := s.handleCommit(wire.CommitReq{
						TxID: start.TxID, HWT: lastCommit,
						Writes: []wire.KV{{Key: keys[i%len(keys)], Value: []byte("v")}},
					})
					cr, ok := resp.(wire.CommitResp)
					if !ok {
						t.Errorf("session %d: commit failed: %+v", c, resp)
						return
					}
					if cr.CommitTS <= start.Snapshot {
						t.Errorf("session %d: commit %v not above snapshot %v", c, cr.CommitTS, start.Snapshot)
						return
					}
					lastCommit = cr.CommitTS
				} else {
					s.handleFinishTx(wire.FinishTx{TxID: start.TxID})
				}
			}
		}(c)
	}

	sessionWG.Wait()
	stop.Store(true)
	wg.Wait()

	// The sessions cleaned up after themselves; nothing may linger once the
	// final apply has drained the pipeline.
	s.nextRound()
	if n := s.PendingCommitted(); n != 0 {
		t.Fatalf("%d committed transactions never applied", n)
	}
}
