package check

import "sort"

// LastWrites returns, for every key the history writes, the transaction of
// its newest acknowledged write: the highest (commit timestamp, id), the
// order in which the store resolves versions.
func (h *History) LastWrites() map[string]*Tx {
	last := make(map[string]*Tx)
	for i := range h.txs {
		tx := &h.txs[i]
		if !isWriter(tx) {
			continue
		}
		for _, k := range tx.Writes {
			if cur, ok := last[k]; !ok || tx.CommitTS > cur.CommitTS || tx.CommitTS == cur.CommitTS && tx.ID > cur.ID {
				last[k] = tx
			}
		}
	}
	return last
}

// Covers reports whether o observed tx's write or a newer version, in the
// store's (timestamp, id) order.
func (o ReadObs) Covers(tx *Tx) bool {
	return o.Found && (o.UT > tx.CommitTS || o.UT == tx.CommitTS && o.Writer >= tx.ID)
}

// CheckReadBack checks that no acknowledged write was lost. got is a final
// read of every key in LastWrites, taken at a snapshot that covers every
// recorded commit. Each key must read its newest acknowledged write or a
// newer version: an older one, or none, means a commit the client was told
// about is missing. A newer version may come from a transaction the history
// did not record, such as one whose commit errored after it took effect.
// Violations come in key order.
func (h *History) CheckReadBack(got map[string]ReadObs) []Violation {
	last := h.LastWrites()
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Violation
	for _, k := range keys {
		tx := last[k]
		obs, ok := got[k]
		switch {
		case !ok:
			out = append(out, violation(KindLostWrite, tx, "key %q was not read back", k))
		case !obs.Covers(tx):
			out = append(out, violation(KindLostWrite, tx,
				"key %q read back at %v by tx %v (found=%v), but the write of tx %v committed at %v was acknowledged",
				k, obs.UT, obs.Writer, obs.Found, tx.ID, tx.CommitTS))
		}
	}
	return out
}
