package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// TestSnapshotMonotonicityUnderConcurrency hammers the context table and the
// lock-free UST from every direction at once — StartTx/Read/Commit sessions,
// piggybacked UST observations, and the round with its sweeps (GC, the
// context cleaner and the prepared-transaction reaper every round) — and
// asserts:
//
//   - session monotonicity: a StartTx carrying the session's last snapshot
//     as ClientUST is answered with a snapshot at least that high;
//   - GC safety: while a transaction is open, the GC watermark (Sold) is at
//     most its snapshot. startTx loads the UST in the critical section that
//     inserts the context; a load outside it lets a watermark scan miss the
//     context and pass the snapshot;
//   - snapshot containment: every item a read returns is within the
//     transaction's snapshot;
//   - causality: a commit timestamp is strictly above the snapshot it
//     depends on;
//   - global UST monotonicity under concurrent advancement.
//
// Run under -race it guards the one-lock rule of the context table.
func TestSnapshotMonotonicityUnderConcurrency(t *testing.T) {
	// The loop below advances the label by one per round, far fewer rounds
	// than the context TTL holds, so the cleaner never evicts a live session's
	// context however the goroutines interleave.
	const dR = 5 * time.Millisecond
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.ApplyInterval = dR
		c.GCInterval = dR
		c.PreparedTTL = 4 * dR
		c.TxContextTTL = 1000 * time.Hour
	})
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

	// The round, driven hard rather than on a ticker, with the stabilization
	// aggregate's GC watermark (the oldest active snapshot, folded as the
	// stabilizer folds it) so GC has versions to trim. The sessions start
	// once it is running.
	running := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; !stop.Load(); r++ {
			s.sold.advance(s.txCtx.minSnapshot(s.ust.Load()))
			s.nextRound()
			s.ctxCleanupTick()
			s.reapTick()
			if r == 0 {
				close(running)
			}
		}
	}()
	<-running

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
				if sold := s.sold.Load(); sold > start.Snapshot {
					t.Errorf("session %d: GC watermark %v passed open snapshot %v", c, sold, start.Snapshot)
					return
				}

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
				if sold := s.sold.Load(); sold > start.Snapshot {
					t.Errorf("session %d: GC watermark %v passed open snapshot %v after a read", c, sold, start.Snapshot)
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
