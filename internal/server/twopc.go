package server

import (
	"sync"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// twoPCTable is the 2PC decision table: the Prepared and Committed queues of
// Algorithm 3 plus the decision memory (decided, committing) and the abort
// tombstones, all keyed by TxID under one mutex. Every 2PC operation —
// prepare, cohort commit, abort, status query, reap — and the apply round's
// bound and drain (collectReady) are one critical section of mu.
//
// Lock ordering: mu may acquire the context table's lock (the status path
// probes it, decidingLocked) and nothing else; nothing that holds the
// context table's lock may take mu.
//
// Correctness of the round's bound (collectReady): inside one critical
// section the round reads ub0 from the clock, sets ub = min(ub0,
// min{prepared.pt} − 1) and drains every committed entry with ct ≤ ub. A
// prepare or a sole commit draws its timestamp from the clock under mu
// (handlePrepare), so an entry the round does not see draws it after ub0
// and lies strictly above ub. A Prepared→Committed move happens under mu
// too, so the round sees the entry on one queue or the other: pinning ub
// below its pt ≤ ct, or drained. No commit can land in the Committed queue
// at or below a published ub after the round that published it.
type twoPCTable struct {
	mu sync.Mutex
	// prepared is the Prepared queue (Alg. 3): undecided 2PCs only.
	prepared map[wire.TxID]*preparedTx
	// committed holds committed-but-unapplied transactions.
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
	// expiry lists every stamp written to aborted, decided and done, in
	// label order, so pruneDecisions pops the expired prefix instead of
	// walking the maps. A writer that read the label before a round
	// advanced it may queue behind later stamps; its entry then expires
	// with them, a little late.
	expiry []stamp
}

// stamp is one label-stamped write to aborted, decided or done.
type stamp struct {
	at int64
	id wire.TxID
}

func (t *twoPCTable) init() {
	t.prepared = make(map[wire.TxID]*preparedTx)
	t.aborted = make(map[wire.TxID]int64)
	t.decided = make(map[wire.TxID]decidedTx)
	t.committing = make(map[wire.TxID]struct{})
	t.done = make(map[wire.TxID]int64)
}

// pushCommittedLocked appends c to the Committed queue. The caller holds mu.
func (t *twoPCTable) pushCommittedLocked(c committedTx) {
	t.committed = append(t.committed, c)
}

// commitPreparedLocked moves id's prepared entry to the Committed queue at
// ct, reporting false when no entry is prepared. The caller holds mu.
func (t *twoPCTable) commitPreparedLocked(id wire.TxID, ct hlc.Timestamp) bool {
	p, ok := t.prepared[id]
	if !ok {
		return false
	}
	delete(t.prepared, id)
	t.pushCommittedLocked(committedTx{id: p.id, ct: ct, srcDC: p.srcDC, writes: p.writes})
	return true
}

// counts returns the sizes of the Prepared queue, the Committed queue and
// the tombstone set.
func (t *twoPCTable) counts() (prepared, committed, aborted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.prepared), len(t.committed), len(t.aborted)
}

// abortLocked, decideLocked and doneLocked write id's entry in aborted,
// decided and done, and queue its expiry. The caller holds mu.
func (t *twoPCTable) abortLocked(id wire.TxID, at int64) {
	t.aborted[id] = at
	t.expiry = append(t.expiry, stamp{at, id})
}

func (t *twoPCTable) decideLocked(id wire.TxID, d decidedTx) {
	t.decided[id] = d
	t.expiry = append(t.expiry, stamp{d.at, id})
}

func (t *twoPCTable) doneLocked(id wire.TxID, at int64) {
	t.done[id] = at
	t.expiry = append(t.expiry, stamp{at, id})
}

// pruneDecisions drops tombstones and decision records stamped before the
// round label cutoff. It pops the expired prefix of the expiry queue, so a
// call costs what expired since the last one, not every record held; the
// round calls it every round.
func (t *twoPCTable) pruneDecisions(cutoff int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for ; n < len(t.expiry) && t.expiry[n].at < cutoff; n++ {
		// An entry stamped again since has a later stamp of its own.
		id := t.expiry[n].id
		if at, ok := t.aborted[id]; ok && at < cutoff {
			delete(t.aborted, id)
		}
		if d, ok := t.decided[id]; ok && d.at < cutoff {
			delete(t.decided, id)
		}
		if at, ok := t.done[id]; ok && at < cutoff {
			delete(t.done, id)
		}
	}
	t.expiry = t.expiry[n:]
}
