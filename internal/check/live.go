package check

import "sync"

// Live is a concurrency-safe history recorder for long-running harnesses:
// many workload workers Add committed transactions while a checker goroutine
// periodically validates the prefix recorded so far. A violation in a prefix
// is one in every longer history: reads of writers not yet recorded are
// skipped, and rule (b) searches only recorded writers, as it ignores a
// failed commit that took effect. So the nemesis harness checks *during*
// fault episodes instead of only at the end.
type Live struct {
	mu sync.Mutex
	h  History
}

// Add appends a committed transaction. Safe for concurrent use.
func (l *Live) Add(tx Tx) {
	l.mu.Lock()
	l.h.Add(tx)
	l.mu.Unlock()
}

// Len returns the number of transactions recorded so far.
func (l *Live) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Len()
}

// Snapshot returns an independent copy of the history recorded so far.
func (l *Live) Snapshot() *History {
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := &History{txs: make([]Tx, len(l.h.txs))}
	copy(cp.txs, l.h.txs)
	return cp
}

// CheckNow validates the prefix recorded so far and returns any violations.
// Recording continues unhindered while the (potentially slow) validation
// runs against the snapshot.
func (l *Live) CheckNow() []Violation {
	return l.Snapshot().Check()
}
