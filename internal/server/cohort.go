package server

import (
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/wire"
)

// This file implements the transaction-cohort role (Algorithm 3): snapshot
// reads on one partition, the prepare and commit phases of 2PC, and the BPR
// baseline's blocking read path.

// handleReadSlice implements Alg. 3 lines 1–8: return the freshest version of
// each key within the snapshot. In PaRiS mode this never blocks: the snapshot
// is universally stable, so everything it contains has already been applied.
func (s *Server) handleReadSlice(req wire.ReadSliceReq) wire.Message {
	return wire.ReadSliceResp{Items: s.readLocal(req.Keys, req.Snapshot)}
}

// readLocal is the slice read itself, shared by the wire handler and the
// coordinator's local fast path (which skips the request/response wrapping
// when the target replica is this very server). Items come back in key
// order; absent keys are skipped.
func (s *Server) readLocal(keys []string, snapshot hlc.Timestamp) []wire.Item {
	// ust mn ← max{ust mn, ust}: piggybacked stabilization (Alg. 3 line 2).
	s.observeUST(snapshot)

	items := make([]wire.Item, 0, len(keys))
	for _, k := range keys {
		var (
			item wire.Item
			ok   bool
		)
		if r := s.resolverFor(k); r != nil {
			item, ok = s.store.ReadResolved(k, snapshot, r)
		} else {
			item, ok = s.store.Read(k, snapshot)
		}
		if ok {
			items = append(items, item)
		}
	}
	s.metrics.slicesServed.Add(1)
	return items
}

// handleReadSliceBlocking is the BPR read path: wait until this partition has
// installed every local and remote transaction with commit timestamp up to
// the snapshot, then serve the read. The wait is the price BPR pays for its
// fresher snapshots.
func (s *Server) handleReadSliceBlocking(req wire.ReadSliceReq) wire.Message {
	waited := s.waitInstalled(req.Snapshot)
	s.metrics.observeBlocking(waited)
	if s.isStopped() {
		return wire.ErrorResp{Code: wire.CodeShuttingDown, Msg: "server stopped"}
	}
	return s.handleReadSlice(req)
}

// resolverFor returns the key's custom conflict resolver, if any.
func (s *Server) resolverFor(key string) store.Resolver {
	if s.cfg.ResolverFor == nil {
		return nil
	}
	return s.cfg.ResolverFor(key)
}

// observeUST folds a piggybacked stable-time value into the server's UST
// (Alg. 3 lines 2 and 11) — a lock-free monotonic advance; it runs on every
// slice read of every transaction. In BPR mode snapshots come from
// coordinator clocks, not from the UST, so they are not evidence of
// universal stability and must not advance it.
func (s *Server) observeUST(ts hlc.Timestamp) {
	if ts == 0 || s.cfg.Mode != ModeNonBlocking {
		return
	}
	if s.ust.advance(ts) {
		s.drainVisibility()
	}
}

// handlePrepare implements Alg. 3 lines 9–14: advance the hybrid clock past
// everything the client has seen, propose a commit time that reflects
// causality, and park the transaction in the Prepared queue — all under the
// 2PC table's lock, so the apply round's bound never misses it (see
// twoPCTable).
//
// A sole prepare (the transaction writes only this partition) is also the
// decision: ct = max{pt} over one proposal is the proposal itself, so the
// transaction goes straight onto the Committed queue at pt (Alg. 3 lines
// 15–19 with ct = pt). It never holds a prepared entry, so nothing pins ub,
// nothing can be reaped, and no coordinator is ever asked about it.
func (s *Server) handlePrepare(req wire.PrepareReq) wire.Message {
	t := &s.twoPC
	t.mu.Lock()
	defer t.mu.Unlock()

	if _, dead := t.aborted[req.TxID]; dead {
		// The transaction was already aborted or reaped here; accepting the
		// prepare would recreate an orphan that no commit can ever resolve.
		return wire.ErrorResp{Code: wire.CodeTxAborted,
			Msg: "prepare: transaction " + req.TxID.String() + " already aborted"}
	}

	// HLC mn ← max(Clock, ht+1, HLC+1).
	proposed := s.clock.Update(req.HT)
	// ust mn ← max{ust mn, ust} (PaRiS only; BPR snapshots are not stable).
	s.observeUST(req.Snapshot)
	// pt ← max{HLC, ust}. The proposed time must exceed every snapshot the
	// transaction could have read from.
	if ust := s.ust.Load(); ust > proposed {
		proposed = ust
		s.clock.Observe(proposed)
	}
	s.metrics.prepares.Add(1)
	if req.Sole {
		t.pushCommittedLocked(committedTx{
			id:     req.TxID,
			ct:     proposed,
			srcDC:  s.self.DC,
			writes: dedupWrites(req.Writes),
		})
		return wire.PrepareResp{TxID: req.TxID, Proposed: proposed}
	}
	t.prepared[req.TxID] = &preparedTx{
		id:     req.TxID,
		pt:     proposed,
		srcDC:  s.self.DC,
		writes: dedupWrites(req.Writes),
		at:     s.label(),
	}
	return wire.PrepareResp{TxID: req.TxID, Proposed: proposed}
}

// dedupWrites collapses duplicate keys in a write-set, last writer wins — the
// apply order of a transaction's own writes must not depend on map iteration
// or wire ordering quirks. The client dedups through its write-set map, but
// the server API must not rely on every caller doing so. The common
// duplicate-free case returns the input slice untouched, detected without
// allocating: per-partition write-sets are small, so a quadratic probe beats
// building a map on every prepare of every transaction.
func dedupWrites(kvs []wire.KV) []wire.KV {
	const probeLimit = 64 // above this, the map probe's allocation is worth it
	if len(kvs) <= probeLimit {
		dup := false
	probe:
		for i := 1; i < len(kvs); i++ {
			for j := 0; j < i; j++ {
				if kvs[j].Key == kvs[i].Key {
					dup = true
					break probe
				}
			}
		}
		if !dup {
			return kvs
		}
	} else {
		seen := make(map[string]struct{}, len(kvs))
		dup := false
		for _, kv := range kvs {
			if _, ok := seen[kv.Key]; ok {
				dup = true
				break
			}
			seen[kv.Key] = struct{}{}
		}
		if !dup {
			return kvs
		}
	}
	out := make([]wire.KV, 0, len(kvs))
	idx := make(map[string]int, len(kvs))
	for _, kv := range kvs {
		if i, ok := idx[kv.Key]; ok {
			out[i].Value = kv.Value // keep first position, last value
			continue
		}
		idx[kv.Key] = len(out)
		out = append(out, kv)
	}
	return out
}

// handleCohortCommit implements Alg. 3 lines 15–19: move the transaction from
// the Prepared queue to the Committed queue under its final commit timestamp.
func (s *Server) handleCohortCommit(m wire.CohortCommit) {
	t := &s.twoPC
	t.mu.Lock()
	defer t.mu.Unlock()

	// HLC mn ← max(HLC, ct, Clock).
	s.clock.Observe(m.CommitTS)

	if _, dead := t.aborted[m.TxID]; dead {
		// The reaper (or an abort) already released this transaction and the
		// version-clock upper bound may have advanced past its prepare time;
		// applying it now would plant a version inside already-served
		// snapshots. Atomicity is preserved by rejecting: a reapable
		// transaction is one whose coordinator never finished the commit
		// phase, so no cohort has applied it either.
		s.metrics.commitsRejected.Add(1)
		return
	}
	// A missing entry means a duplicate or post-shutdown commit; FIFO links
	// make it unreachable in normal operation.
	t.commitPreparedLocked(m.TxID, m.CommitTS)
}

// handleCommitRecover is the acknowledged fallback for a commit decision
// whose CohortCommit cast failed. Three cases, all under the 2PC table's lock:
//
//   - the prepared entry is still here → promote it exactly as a CohortCommit
//     would (the carried writes are ignored; the prepared ones are canonical);
//   - no entry but the id is tombstoned or already recovered → answer with the
//     recorded fate, installing nothing twice;
//   - neither (this cohort restarted since preparing without its 2PC log —
//     embedded-cluster restarts replay it via Config.Recovered2PC, but a
//     bare server.Config user may restart without one) → install the
//     carried writes directly, provided the
//     version clock has not yet published past the commit timestamp. During a
//     restart's recovery hold the clock is frozen below every possibly-lost
//     commit, so the install lands before any reader could have taken a
//     snapshot covering it; past the hold the install would plant a version
//     inside already-served snapshots and is refused instead (the same
//     availability-over-atomicity line the reaper's hard deadline draws).
func (s *Server) handleCommitRecover(m wire.CommitRecover) wire.Message {
	committed := wire.TxStatusResp{TxID: m.TxID, Status: wire.TxStatusCommitted, CommitTS: m.CommitTS}
	aborted := wire.TxStatusResp{TxID: m.TxID, Status: wire.TxStatusAborted}

	t := &s.twoPC
	t.mu.Lock()
	defer t.mu.Unlock()

	s.clock.Observe(m.CommitTS)
	if _, ok := t.done[m.TxID]; ok {
		return committed // an earlier recovery attempt already landed
	}
	if _, dead := t.aborted[m.TxID]; dead {
		s.metrics.commitsRejected.Add(1)
		return aborted
	}
	if t.commitPreparedLocked(m.TxID, m.CommitTS) {
		t.doneLocked(m.TxID, s.label())
		s.metrics.commitsRecovered.Add(1)
		return committed
	}
	if s.vv[s.self.DC].Load() >= m.CommitTS {
		s.metrics.commitsRejected.Add(1)
		return aborted
	}
	t.pushCommittedLocked(committedTx{
		id: m.TxID, ct: m.CommitTS, srcDC: s.self.DC, writes: dedupWrites(m.Writes),
	})
	t.doneLocked(m.TxID, s.label())
	s.metrics.commitsRecovered.Add(1)
	return committed
}

// handleAbortTx releases a prepared transaction whose coordinator gave up on
// the two-phase commit (a cohort failed to prepare). The id is tombstoned
// whether or not a prepared entry exists: the abort may overtake a prepare
// that was retried through another path, and a later CohortCommit or
// PrepareReq for the id must find the tombstone.
func (s *Server) handleAbortTx(m wire.AbortTx) {
	t := &s.twoPC
	t.mu.Lock()
	if _, ok := t.prepared[m.TxID]; ok {
		delete(t.prepared, m.TxID)
		s.metrics.cohortAborts.Add(1)
	}
	t.abortLocked(m.TxID, s.label())
	t.mu.Unlock()
}
