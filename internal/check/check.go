// Package check is an offline Transactional Causal Consistency validator.
// It replays a recorded history of committed transactions and verifies the
// guarantees of §II-B against it:
//
//  1. session monotonicity — no snapshot of a session is below an earlier one;
//  2. read-your-writes — a session observes its own prior committed writes
//     (or newer versions);
//  3. atomic (non-fractured) reads — when a transaction reads two keys
//     written together by another transaction, it sees both or neither of
//     that transaction's versions, never a mix with older versions;
//  4. causal snapshots, checked over direct edges only as two rules:
//     (a) commit order extends causal order — along a session, each update
//     commits above the session's previous update and above every recorded
//     writer the session has read from since, and a version read from
//     another session committed at or below the reader's snapshot;
//     (b) every read is a snapshot read — a read at snapshot s that
//     observed version v ≤ s (0 when nothing was found) skipped no recorded
//     writer of the key that committed in (v, s].
//
// Rules (a) and (b), with 1 and 2, imply the transitive property: if a read
// at snapshot s observes Y and X → Y (session order or read-from,
// transitively), no key X wrote is observed older than what X wrote. By (a),
// commit timestamps rise along every edge, so ct(X) < ct(Y). If Y's writer is
// in another session, (a) also gives ct(Y) ≤ s. If it is in the reader's
// session and so is X, read-your-writes covers X's keys. Otherwise the path
// from X enters the reader's session through a read by an earlier
// transaction R of a writer Z, and ct(X) ≤ ct(Z) ≤ snapshot(R) ≤ s by (a) and
// monotonicity. Either way ct(X) ≤ s, and (b) forbids seeing X's key below
// ct(X). Rule (b) is also PaRiS's own promise: a read returns the freshest
// version at or below one snapshot, which the UST makes universally
// installed (and which BPR waits for before serving).
//
// Test suites record histories from live clusters; the ablation experiments
// use the checker to demonstrate that removing the client cache breaks
// read-your-writes exactly as §III-B predicts.
package check

import (
	"fmt"
	"sort"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// ReadObs is one observed key version inside a transaction.
type ReadObs struct {
	Key string
	// Writer identifies the transaction that produced the version (zero if
	// the key was unwritten/invisible).
	Writer wire.TxID
	// UT is the version's timestamp (zero if unwritten).
	UT hlc.Timestamp
	// Found reports whether any version was visible.
	Found bool
}

// Tx is one committed transaction in a history.
type Tx struct {
	// Session identifies the client session; ops within a session are
	// ordered by Seq.
	Session int
	Seq     int
	// ID is the transaction id assigned by the coordinator (zero for
	// read-only transactions, which never receive one on commit).
	ID wire.TxID
	// Snapshot is the snapshot timestamp the transaction ran against.
	Snapshot hlc.Timestamp
	// CommitTS is the commit timestamp (zero for read-only transactions).
	CommitTS hlc.Timestamp
	// Reads are the observed versions, Writes the keys written.
	Reads  []ReadObs
	Writes []string
}

// Violation describes one consistency violation found in a history.
type Violation struct {
	Kind    string
	Session int
	Seq     int
	Detail  string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: session %d tx %d: %s", v.Kind, v.Session, v.Seq, v.Detail)
}

// Violation kinds.
const (
	KindMonotonicity   = "snapshot-monotonicity"
	KindReadYourWrites = "read-your-writes"
	KindAtomicity      = "atomic-reads"
	KindCausality      = "causal-snapshot"
)

// History accumulates transactions for validation. It is not safe for
// concurrent use; record per-session histories and merge, or guard
// externally.
type History struct {
	txs []Tx
}

// Add appends a committed transaction.
func (h *History) Add(tx Tx) { h.txs = append(h.txs, tx) }

// Merge appends all transactions of other.
func (h *History) Merge(other *History) { h.txs = append(h.txs, other.txs...) }

// Len returns the number of recorded transactions.
func (h *History) Len() int { return len(h.txs) }

// Check validates the history and returns all violations found (nil when
// consistent).
func (h *History) Check() []Violation {
	writers := h.writerOf()
	out := checkSessions(h.bySession(), writers)
	out = append(out, h.checkAtomicity(writers)...)
	return append(out, h.checkSnapshotReads()...)
}

// violation reports kind against tx.
func violation(kind string, tx *Tx, format string, args ...any) Violation {
	return Violation{Kind: kind, Session: tx.Session, Seq: tx.Seq, Detail: fmt.Sprintf(format, args...)}
}

// isWriter reports whether tx is a recorded update: one with an id and writes.
func isWriter(tx *Tx) bool { return tx.ID != 0 && len(tx.Writes) > 0 }

// bySession returns the transactions grouped by session, ordered by Seq.
func (h *History) bySession() map[int][]*Tx {
	sessions := make(map[int][]*Tx)
	for i := range h.txs {
		tx := &h.txs[i]
		sessions[tx.Session] = append(sessions[tx.Session], tx)
	}
	for _, txs := range sessions {
		sort.Slice(txs, func(i, j int) bool { return txs[i].Seq < txs[j].Seq })
	}
	return sessions
}

// writerOf indexes committed write transactions by id.
func (h *History) writerOf() map[wire.TxID]*Tx {
	idx := make(map[wire.TxID]*Tx, len(h.txs))
	for i := range h.txs {
		if tx := &h.txs[i]; isWriter(tx) {
			idx[tx.ID] = tx
		}
	}
	return idx
}

// checkSessions walks each session in order and verifies monotonicity,
// read-your-writes and rule (a). For rule (a), floor is the highest commit
// timestamp among the session's last update and the recorded writers read
// since: the direct causal predecessors of the session's next update.
func checkSessions(sessions map[int][]*Tx, writers map[wire.TxID]*Tx) []Violation {
	var out []Violation
	for _, txs := range sessions {
		var prevSnap, floor hlc.Timestamp
		var floorTx wire.TxID
		lastWrite := make(map[string]hlc.Timestamp) // key → commit ts of own last write
		for _, tx := range txs {
			if tx.Snapshot < prevSnap {
				out = append(out, violation(KindMonotonicity, tx, "snapshot %v after %v", tx.Snapshot, prevSnap))
			}
			prevSnap = max(prevSnap, tx.Snapshot)

			for _, r := range tx.Reads {
				if own, wrote := lastWrite[r.Key]; wrote && (!r.Found || r.UT < own) {
					out = append(out, violation(KindReadYourWrites, tx,
						"key %q read at %v but own write committed at %v", r.Key, r.UT, own))
				}
				w, ok := writers[r.Writer]
				if !r.Found || !ok {
					continue
				}
				// Only the session's own-write cache may serve a version
				// above the snapshot.
				if w.Session != tx.Session && w.CommitTS > tx.Snapshot {
					out = append(out, violation(KindCausality, tx,
						"rule (a): read %q from tx %v committed at %v, above snapshot %v",
						r.Key, w.ID, w.CommitTS, tx.Snapshot))
				}
				if w.CommitTS > floor {
					floor, floorTx = w.CommitTS, w.ID
				}
			}
			if tx.CommitTS != 0 {
				for _, k := range tx.Writes {
					lastWrite[k] = tx.CommitTS
				}
			}
			if !isWriter(tx) {
				continue
			}
			if tx.CommitTS <= floor {
				out = append(out, violation(KindCausality, tx,
					"rule (a): committed at %v, not above %v of its causal predecessor tx %v",
					tx.CommitTS, floor, floorTx))
			}
			floor, floorTx = tx.CommitTS, tx.ID
		}
	}
	return out
}

// checkAtomicity verifies that no transaction observes a fractured write:
// reading writer W's version for one key but an older version for another
// key W also wrote and the reader also read.
func (h *History) checkAtomicity(writers map[wire.TxID]*Tx) []Violation {
	var out []Violation
	for i := range h.txs {
		tx := &h.txs[i]
		// Index this transaction's observations.
		obs := make(map[string]ReadObs, len(tx.Reads))
		for _, r := range tx.Reads {
			obs[r.Key] = r
		}
		for _, r := range tx.Reads {
			if !r.Found || r.Writer == 0 {
				continue
			}
			w, ok := writers[r.Writer]
			if !ok {
				continue // writer not recorded (e.g. outside the history)
			}
			for _, wk := range w.Writes {
				other, read := obs[wk]
				if !read || wk == r.Key {
					continue
				}
				// The reader read wk too; it must see w's version (same
				// commit ts) or anything newer — never older.
				if !other.Found || other.UT < w.CommitTS {
					out = append(out, violation(KindAtomicity, tx, "at snapshot %v saw tx %v for %q(@%v) but %q at %v < %v",
						tx.Snapshot, r.Writer, r.Key, r.UT, wk, other.UT, w.CommitTS))
				}
			}
		}
	}
	return out
}

// checkSnapshotReads verifies rule (b) by binary search in each key's
// recorded writers, sorted once by commit timestamp. A read above its
// snapshot comes from the own-write cache and is left to rule (a) and
// read-your-writes. Writers the history never recorded are not indexed, so
// they can hide no violation and raise none.
func (h *History) checkSnapshotReads() []Violation {
	versions := make(map[string][]*Tx)
	for i := range h.txs {
		if w := &h.txs[i]; isWriter(w) {
			for _, k := range w.Writes {
				versions[k] = append(versions[k], w)
			}
		}
	}
	for _, ws := range versions {
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].CommitTS < ws[j].CommitTS })
	}
	var out []Violation
	for i := range h.txs {
		tx := &h.txs[i]
		for _, r := range tx.Reads {
			var v hlc.Timestamp
			if r.Found {
				v = r.UT
			}
			if v > tx.Snapshot {
				continue
			}
			ws := versions[r.Key]
			j := sort.Search(len(ws), func(j int) bool { return ws[j].CommitTS > v })
			if j < len(ws) && ws[j].CommitTS <= tx.Snapshot {
				w := ws[j]
				out = append(out, violation(KindCausality, tx,
					"rule (b): read %q at snapshot %v observed %v, skipping tx %v of session %d committed at %v",
					r.Key, tx.Snapshot, v, w.ID, w.Session, w.CommitTS))
			}
		}
	}
	return out
}
