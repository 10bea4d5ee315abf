package server

import (
	"sync"
	"sync/atomic"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// twoPCTable is the sharded 2PC decision table: the Prepared and Committed
// queues of Algorithm 3 plus the decision memory (decided, committing) and the
// abort tombstones, all keyed by TxID and co-located on one shard so every
// 2PC operation — prepare, cohort commit, abort, status query, reap — touches
// exactly one shard lock. Before PR 6 this state lived in five maps under one
// server-wide mutex, which serialized handlePrepare/handleCohortCommit/
// applyTick against each other and was the dominant contention point once the
// client-operation hot path went lock-free.
//
// Lock ordering: a twoPC shard lock may acquire a txCtx shard lock (the
// status path probes the context table) but never another twoPC shard lock,
// and nothing that holds a txCtx shard lock may take a twoPC shard lock.
//
// Correctness of the sharded ub computation (applyTick): the version-clock
// upper bound is ub = min(ub0, min{prepared.pt} − 1) where ub0 is a clock
// reading taken BEFORE any shard is scanned, and the round then drains every
// committed entry with ct ≤ ub. Both passes skip a shard whose size mirror
// (nPrepared in the first, nCommitted in the second) reads zero, without its
// lock. Two ordering rules make the skips safe:
//
//   - An entry enters the table by publishing its shard's count BEFORE it
//     draws its timestamp from the clock: nPrepared for a prepare,
//     nCommitted for a sole cohort's commit (handlePrepare). A scan that
//     loads zero therefore loaded before the add; by the seq-cst total
//     order of the atomics and the clock's monotonicity the timestamp is
//     drawn after ub0 and lies strictly above it, hence above ub. An entry
//     inserted after the scan visited its shard is ordered behind the visit
//     by the shard mutex and lies above ub0 for the same reason.
//   - An entry moves from Prepared to Committed (commitPreparedLocked) by
//     publishing nCommitted BEFORE it retires nPrepared. Otherwise a scan
//     whose first load fell after the retirement and whose second fell
//     before the publication would see neither the pin nor the entry,
//     publish ub ≥ ct, and apply the write a round late. With the rule, a
//     first pass that no longer sees the pin is followed by a second pass
//     that sees the entry; a first pass that sees the pin keeps ub < pt ≤ ct.
//
// Either way no commit can land in the Committed queue at or below a
// published ub after the round that published it drained the queue.
type twoPCTable struct {
	shards [twoPCShardCount]twoPCShard
}

// twoPCShardCount is a power of two; TxIDs carry a per-coordinator sequence
// number in their low bits, so consecutive transactions spread evenly.
const twoPCShardCount = 64

type twoPCShard struct {
	mu sync.Mutex
	// prepared is this shard's slice of the Prepared queue (Alg. 3).
	prepared map[wire.TxID]*preparedTx
	// committed holds committed-but-unapplied transactions of this shard.
	committed []committedTx
	// aborted holds the abort/reap tombstones (see Server docs) with the
	// round labels they were planted at.
	aborted map[wire.TxID]int64
	// decided remembers coordinator commit decisions for status queries.
	decided map[wire.TxID]decidedTx
	// committing marks 2PC fan-outs in flight on this coordinator.
	committing map[wire.TxID]struct{}
	// done remembers commits that arrived through a recovery path — a
	// CommitRecover call or a reaper status query — so retries of the same
	// recovery are acknowledged without re-installing the transaction. The
	// common cast-delivered commit is not recorded: a cast either errors
	// (and recovery takes over) or is delivered exactly once per FIFO link.
	done map[wire.TxID]int64 // round labels, as in aborted

	// minPT caches min{p.pt} over prepared; valid only while minValid and
	// prepared is non-empty. Inserts fold into the cache, removing the
	// minimum invalidates it, and the applyTick scan recomputes lazily —
	// replacing the old per-tick O(|prepared|) scan under the global lock.
	minPT    hlc.Timestamp
	minValid bool

	// nPrepared and nCommitted mirror the queue sizes so scans skip empty
	// shards without locking and introspection is lock-free. An entry's
	// count MUST be published before it draws its timestamp from the hybrid
	// clock, and a move MUST publish nCommitted before it retires nPrepared
	// (see the ub correctness note on twoPCTable).
	nPrepared  atomic.Int64
	nCommitted atomic.Int64
}

func (t *twoPCTable) init() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.prepared = make(map[wire.TxID]*preparedTx)
		sh.aborted = make(map[wire.TxID]int64)
		sh.decided = make(map[wire.TxID]decidedTx)
		sh.committing = make(map[wire.TxID]struct{})
		sh.done = make(map[wire.TxID]int64)
	}
}

func (t *twoPCTable) shard(id wire.TxID) *twoPCShard {
	return &t.shards[uint64(id)&(twoPCShardCount-1)]
}

// insertPreparedLocked adds p to the shard's Prepared queue and folds its
// proposal into the min cache. The caller holds sh.mu and has already
// accounted the entry in nPrepared; a duplicate insert (same id) keeps the
// newest entry and returns false so the caller can undo its count.
func (sh *twoPCShard) insertPreparedLocked(p *preparedTx) bool {
	_, existed := sh.prepared[p.id]
	sh.prepared[p.id] = p
	if existed {
		// Replacing an entry may lower or raise the min arbitrarily.
		sh.minValid = false
		return false
	}
	if len(sh.prepared) == 1 {
		sh.minPT, sh.minValid = p.pt, true
	} else if sh.minValid && p.pt < sh.minPT {
		sh.minPT = p.pt
	}
	return true
}

// removePreparedLocked deletes id from the Prepared queue, maintaining the
// min cache and the size mirror. The caller holds sh.mu.
func (sh *twoPCShard) removePreparedLocked(id wire.TxID) (*preparedTx, bool) {
	p, ok := sh.prepared[id]
	if !ok {
		return nil, false
	}
	delete(sh.prepared, id)
	sh.nPrepared.Add(-1)
	if sh.minValid && p.pt <= sh.minPT {
		// The cached minimum left; the next scan recomputes.
		sh.minValid = false
	}
	return p, true
}

// minPreparedLocked returns min{p.pt} over the shard's Prepared queue,
// recomputing the cache when an earlier removal invalidated it. The caller
// holds sh.mu; ok is false when the queue is empty.
func (sh *twoPCShard) minPreparedLocked() (min hlc.Timestamp, ok bool) {
	if len(sh.prepared) == 0 {
		return 0, false
	}
	if !sh.minValid {
		sh.minPT = hlc.MaxTimestamp
		for _, p := range sh.prepared {
			if p.pt < sh.minPT {
				sh.minPT = p.pt
			}
		}
		sh.minValid = true
	}
	return sh.minPT, true
}

// pushCommittedLocked appends c to the shard's Committed queue. The caller
// holds sh.mu.
func (sh *twoPCShard) pushCommittedLocked(c committedTx) {
	sh.committed = append(sh.committed, c)
	sh.nCommitted.Add(1)
}

// commitPreparedLocked moves id's prepared entry to the Committed queue at
// ct, reporting false when no entry is prepared. It publishes the committed
// entry before it retires the prepared one, the move rule of the note on
// twoPCTable. The caller holds sh.mu.
func (sh *twoPCShard) commitPreparedLocked(id wire.TxID, ct hlc.Timestamp) bool {
	p, ok := sh.prepared[id]
	if !ok {
		return false
	}
	sh.pushCommittedLocked(committedTx{id: p.id, ct: ct, srcDC: p.srcDC, writes: p.writes})
	sh.removePreparedLocked(id)
	return true
}

// minPrepared folds every shard's prepared minimum into one value; ok is
// false when no shard holds a prepared entry. Shards whose size mirror reads
// zero are skipped without locking — safe under the clock protocol described
// on twoPCTable, provided the caller read its ub0 clock value before calling.
func (t *twoPCTable) minPrepared() (min hlc.Timestamp, ok bool) {
	min = hlc.MaxTimestamp
	for i := range t.shards {
		sh := &t.shards[i]
		if sh.nPrepared.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		if m, has := sh.minPreparedLocked(); has && m < min {
			min, ok = m, true
		} else if has {
			ok = true
		}
		sh.mu.Unlock()
	}
	return min, ok
}

// drainCommitted moves every committed transaction with ct ≤ ub into dst and
// returns the result. Shards are drained one at a time; an entry that
// reaches the Committed queue after the drain visited its shard necessarily
// carries ct > ub (see twoPCTable), so missing it here is not a hole — it
// applies next round.
func (t *twoPCTable) drainCommitted(dst []committedTx, ub hlc.Timestamp) []committedTx {
	for i := range t.shards {
		sh := &t.shards[i]
		if sh.nCommitted.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		if len(sh.committed) > 0 {
			rest := sh.committed[:0]
			for _, c := range sh.committed {
				if c.ct <= ub {
					dst = append(dst, c)
				} else {
					rest = append(rest, c)
				}
			}
			if moved := len(sh.committed) - len(rest); moved > 0 {
				sh.nCommitted.Add(int64(-moved))
			}
			sh.committed = rest
		}
		sh.mu.Unlock()
	}
	return dst
}

// preparedCount and committedCount sum the lock-free size mirrors.
func (t *twoPCTable) preparedCount() int {
	n := int64(0)
	for i := range t.shards {
		n += t.shards[i].nPrepared.Load()
	}
	return int(n)
}

func (t *twoPCTable) committedCount() int {
	n := int64(0)
	for i := range t.shards {
		n += t.shards[i].nCommitted.Load()
	}
	return int(n)
}

// abortedCount walks the shards and counts live tombstones.
func (t *twoPCTable) abortedCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.aborted)
		sh.mu.Unlock()
	}
	return n
}

// pruneDecisions drops tombstones and decision records stamped before the
// round label cutoff, one shard at a time.
func (t *twoPCTable) pruneDecisions(cutoff int64) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, at := range sh.aborted {
			if at < cutoff {
				delete(sh.aborted, id)
			}
		}
		for id, d := range sh.decided {
			if d.at < cutoff {
				delete(sh.decided, id)
			}
		}
		for id, at := range sh.done {
			if at < cutoff {
				delete(sh.done, id)
			}
		}
		sh.mu.Unlock()
	}
}
