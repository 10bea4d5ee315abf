package server

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"github.com/paris-kv/paris/internal/wire"
)

// Crash-recovery of the two-phase-commit log.
//
// In presumed-abort 2PC a cohort durably logs a prepare BEFORE acknowledging
// it, and a coordinator durably logs its commit decision before answering
// the client — those log records are what crash recovery replays. This
// repository's store already stands in for the durable log on the data
// plane; TwoPCExport is the matching stand-in for the 2PC log records, so a
// restarted replica rejoins holding exactly what a real deployment would
// recover from disk.
//
// Without it there was a silent atomicity hole the nemesis crash_restart
// scenario surfaced: a cohort that acked a prepare and then crashed while
// the CohortCommit cast was in flight lost the prepared entry with the rest
// of its process state. The cast was accepted onto the (now dead) link, so
// the coordinator's refused-cast fallback never fired; the restarted cohort
// had no entry left to feed the reaper's decision query; and its fresh
// version clock republished a high upper bound — the UST certified
// snapshots over the transaction's missing slice while the other
// partitions' slices were visible. An acked commit partially vanished,
// permanently, with no error anywhere.
//
// Recovery restores the invariant the prepared entry exists to provide: the
// version-clock upper bound stays pinned below the prepare time until the
// transaction's fate is known. Recovered prepares are stamped older than any
// round label, which the reaper counts as one PreparedTTL old at the server's
// first round, so that round's sweep resolves them through the normal
// decision-query flow — the coordinator's decision memory, which itself
// survives that coordinator's restarts via the same export. The export's
// other stamps are absolute labels (multiples of ΔR since the Unix epoch), so
// tombstones and decisions keep aging across the restart.
type TwoPCExport struct {
	prepared  []preparedTx
	committed []committedTx
	aborted   map[wire.TxID]int64
	decided   map[wire.TxID]decidedTx
	done      map[wire.TxID]int64
}

// ExportTwoPC snapshots the server's 2PC log: prepared entries awaiting a
// decision, committed-but-unapplied transactions, abort/reap tombstones,
// coordinator decision memory, and recovery receipts. Call it on a stopped
// (crashed) server and hand the result to the replacement's
// Config.Recovered2PC. In-flight coordinator fan-outs (committing) are
// deliberately excluded — they died with the process and their outcome is
// answerable from decided/aborted alone; carrying them over would wedge
// status queries on "pending" forever.
func (s *Server) ExportTwoPC() *TwoPCExport {
	t := &s.twoPC
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &TwoPCExport{
		committed: slices.Clone(t.committed),
		aborted:   maps.Clone(t.aborted),
		decided:   maps.Clone(t.decided),
		done:      maps.Clone(t.done),
	}
	for _, p := range t.prepared {
		e.prepared = append(e.prepared, *p)
	}
	return e
}

// importTwoPC seeds a fresh server's 2PC table from a crashed predecessor's
// export. Called from New, before any loop or handler runs, so the prepared
// entries pin the version-clock upper bound from the server's very first
// apply round — no reader can take a snapshot above a still-undecided
// prepare. Recovered prepares are stamped older than any label (see
// TwoPCExport).
func (s *Server) importTwoPC(e *TwoPCExport) {
	t := &s.twoPC
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range e.prepared {
		p := e.prepared[i] // copy; the export stays reusable
		p.at = math.MinInt64
		t.prepared[p.id] = &p
	}
	for _, c := range e.committed {
		t.pushCommittedLocked(c)
		s.clock.Observe(c.ct)
	}
	for id, at := range e.aborted {
		t.abortLocked(id, at)
	}
	for id, d := range e.decided {
		t.decideLocked(id, d)
	}
	for id, at := range e.done {
		t.doneLocked(id, at)
	}
	slices.SortFunc(t.expiry, func(a, b stamp) int { return cmp.Compare(a.at, b.at) })
}
