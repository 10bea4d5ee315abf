package server

import (
	"cmp"
	"slices"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// This file implements the apply/replicate loop and the replication receive
// path (Algorithm 4 lines 5–33), plus the installed-snapshot waiters that the
// BPR baseline's blocking reads park on.

// applyTick runs every ΔR (Alg. 4 lines 5–22) for the round labelled round,
// the index of the wall-clock boundary it was armed for, and label, the same
// instant on the server's steady clock (runLoop), which it publishes. It
// computes the upper bound ub below which no future transaction can commit,
// applies every committed transaction with ct ≤ ub to the store in
// commit-timestamp order, replicates the applied groups to peer replicas in
// batches carrying the round label, advances the local version clock to ub,
// heartbeats when there was nothing to replicate, and hands the advanced
// entry to the stabilizer (roundTick). The round ends with its due sweeps
// (sweepTick): GC, context expiry and the prepared-transaction reaper.
//
// Note on ct ≤ ub versus the paper's ct < ub (Alg. 4 line 10): after setting
// VV[self] = ub the server claims to have installed everything with
// timestamp up to and including ub, so a committed transaction with ct == ub
// must be applied in the same round. Applying ct ≤ ub is safe because ub is
// strictly below every prepared timestamp and the hybrid clock, hence below
// any future commit timestamp.
//
// ub and the drain come from one critical section of the 2PC table's lock
// (collectReady), which every prepare, sole commit and Prepared→Committed
// move also holds while it draws or assigns its timestamp: the drain misses
// nothing the published ub covers (see twoPCTable).
func (s *Server) applyTick(round, label int64) {
	s.labelNow.Store(label)
	if s.first == 0 {
		s.first = label
	}
	defer s.sweepTick(label) // after the round's casts and push
	// Post-restart recovery hold: a freshly restarted server idles its whole
	// apply plane — no store apply, no version-clock advance, no replication,
	// no heartbeat — for the hold's rounds. Committed transactions (normal
	// and CommitRecover-recovered alike) queue up meanwhile; to every peer
	// the server is merely slow, the UST stays frozen below any commit that
	// may have been lost in the crash window, and the first round after the
	// hold drains everything in one correctly-bounded batch. The sweeps run
	// through the hold: the reaper is how recovered prepares learn their fate
	// before it ends.
	if s.cfg.RecoveryHold > 0 && label-s.first < s.cfg.rounds(s.cfg.RecoveryHold) {
		s.stab.roundTick(round, false)
		return
	}
	ub, ready := s.collectReady()

	// Apply to the multi-version store before exposing ub: a reader that
	// sees VV[self] = ub must find every version with ut ≤ ub. The round's
	// items go through the store grouped per shard — fanned out over the
	// apply workers when the round is large — and ready is sorted by
	// (ct, id), so inserts hit the chain-tail fast path. The worker join is
	// the round's sequencer: the vv publication below happens only after
	// every partition of the round has landed, preserving the
	// store-then-publish ordering readers rely on.
	if len(ready) > 0 {
		n := 0
		for _, c := range ready {
			n += len(c.writes)
		}
		items := s.applyItems[:0]
		for _, c := range ready {
			for _, kv := range c.writes {
				items = append(items, wire.Item{
					Key:   kv.Key,
					Value: kv.Value,
					UT:    c.ct,
					TxID:  c.id,
					SrcDC: c.srcDC,
				})
			}
		}
		s.store.ApplyBatchConcurrent(items, s.applyWorkers)
		if s.vis != nil {
			for _, c := range ready {
				s.vis.recordCommit(c.ct)
			}
		}
		clear(items)
		s.applyItems = items[:0]
		s.stab.markData()
	}
	s.vv[s.self.DC].advance(ub)
	s.drainVisibility()

	s.notifyInstalled(s.installedLowerBound())

	// The round's commit-timestamp groups plus its heartbeat coalesce into
	// (usually) one ReplicateBatch per destination — one wire write per peer
	// per ΔR instead of one per commit timestamp. Each destination's pump
	// takes the round and casts what its credit admits, here and now
	// (flowpump.go): sequencing, pacing (by the steady label, which a
	// wall-clock step leaves alone), coalescing and repair service for that
	// peer. The builder's per-chunk sizes ride along so the pumps never
	// re-walk the payload.
	chunks, sizes := buildReplicateBatches(s.applyChunks[:0], s.applySizes[:0], s.self.DC, round, ready, ub, s.cfg.BatchMaxBytes)
	for _, p := range s.pumps {
		p.submit(chunks, sizes, ub)
		p.step(label)
	}
	if len(ready) > 0 {
		s.metrics.txApplied.Add(uint64(len(ready)))
	}
	// Recycle the round's scratch; the pumps copied the chunks and the
	// outbound messages hold their own references to the groups and
	// write-sets, so clearing only drops this loop's.
	clear(ready)
	clear(chunks)
	s.applyReady, s.applyChunks, s.applySizes = ready[:0], chunks[:0], sizes[:0]
	s.stab.roundTick(round, true)
}

// buildReplicateBatches coalesces one ΔR round (ready, sorted by commit
// timestamp) into ReplicateBatch chunks labelled round and bounded by
// ~maxBytes of payload, appended to chunks. Chunks split only between
// commit-timestamp groups so every chunk's UpTo — the last carried CT for
// interior chunks, ub for the final one — is a bound the receiver may safely
// advance its version vector to; a single group larger than the cap still
// travels whole. The final chunk doubles as the round's heartbeat: with
// nothing to replicate the result is one empty batch carrying only UpTo = ub.
//
// A round with data allocates two backings, one for every group's Txns and
// one for every chunk's Groups, cut with three-index slices so that no group
// or chunk can append into its neighbour; an empty round allocates nothing.
// The chunks outlive the round in the pumps' queues, so the backings are
// fresh every round; chunks and sizes are the caller's scratch.
//
// Each chunk's wire.ApproxSize is appended to sizes, summed from
// wire.GroupSize while the groups are built, so the flow pumps can account
// queue depth and credit charges without a second full-payload walk per
// destination (emptyBatchSize + the group sums reproduce ApproxSize exactly;
// batchsize_test.go pins the equality).
func buildReplicateBatches(chunks []wire.ReplicateBatch, sizes []int, src topology.DCID, round int64, ready []committedTx, ub hlc.Timestamp, maxBytes int) ([]wire.ReplicateBatch, []int) {
	var (
		txns   []wire.TxUpdates
		groups []wire.ReplicateGroup
		first  int // index in groups of the current chunk's first group
		bytes  int
	)
	if len(ready) > 0 {
		txns = make([]wire.TxUpdates, len(ready))
		n := 1
		for i := 1; i < len(ready); i++ {
			if ready[i].ct != ready[i-1].ct {
				n++
			}
		}
		groups = make([]wire.ReplicateGroup, 0, n)
	}
	cut := func(upTo hlc.Timestamp) {
		chunks = append(chunks, wire.ReplicateBatch{
			SrcDC:  src,
			Round:  uint64(round),
			UpTo:   upTo,
			Groups: groups[first:len(groups):len(groups)],
		})
		sizes = append(sizes, emptyBatchSize+bytes)
		first, bytes = len(groups), 0
	}
	for start := 0; start < len(ready); {
		end := start
		for ; end < len(ready) && ready[end].ct == ready[start].ct; end++ {
			c := &ready[end]
			txns[end] = wire.TxUpdates{TxID: c.id, SrcDC: c.srcDC, Writes: c.writes}
		}
		g := wire.ReplicateGroup{CT: ready[start].ct, Txns: txns[start:end:end]}
		gBytes := wire.GroupSize(g)
		if len(groups) > first && bytes+gBytes > maxBytes {
			cut(groups[len(groups)-1].CT)
		}
		groups = append(groups, g)
		bytes += gBytes
		start = end
	}
	cut(ub)
	return chunks, sizes
}

// collectReady computes the round's upper bound ub below which no future
// transaction can commit, and drains the committed transactions with
// ct ≤ ub, ordered by (ct, id), into the round's scratch slice. The clock
// read, the bound and the drain are one critical section of the 2PC table's
// lock (see twoPCTable).
func (s *Server) collectReady() (hlc.Timestamp, []committedTx) {
	t, ready := &s.twoPC, s.applyReady[:0]
	t.mu.Lock()
	// ub0 ← max{Clock, HLC}, advanced as a local event so that any prepare
	// not yet in the table proposes strictly above it.
	ub := s.clock.Now()
	for _, p := range t.prepared {
		// ub ← min{p.pt} − 1: nothing can commit at or below the smallest
		// prepared proposal (commit times are maxima over proposals).
		ub = min(ub, p.pt-1)
	}
	rest := t.committed[:0]
	for _, c := range t.committed {
		if c.ct <= ub {
			ready = append(ready, c)
		} else {
			rest = append(rest, c)
		}
	}
	clear(t.committed[len(rest):])
	t.committed = rest
	t.mu.Unlock()
	slices.SortFunc(ready, byCTThenID)
	return ub, ready
}

// byCTThenID orders a ΔR round's ready transactions by (ct, id): the apply
// order that deterministic last-writer-wins and the store's chain-tail fast
// path need.
func byCTThenID(a, b committedTx) int {
	if c := cmp.Compare(a.ct, b.ct); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// handleReplicateBatch implements Alg. 4 lines 23–33 for one chunk: it
// applies every group of the chunk in a single store pass (one shard-lock acquisition per shard
// instead of one per item) and then advances the sender's version-vector
// entry to UpTo — the chunk's heartbeat, covering the groups and any idle
// tail of the round. Applying before advancing preserves the invariant that
// a reader who observes the vector entry finds every covered version.
func (s *Server) handleReplicateBatch(m wire.ReplicateBatch) {
	// Piggybacked stabilization: adopt the sender's published stable values
	// before the sequencing check — a nonzero UST was certified by a
	// complete root round somewhere, so it is safe to adopt regardless of
	// this particular chunk's fate, and applyStable is monotonic.
	if m.UST != 0 {
		s.applyStable(m.UST, m.Sold)
	}
	// Sequenced delivery: an out-of-order chunk is evidence of loss (or a
	// sender restart) and must not advance the version vector — see
	// replsync.go. replInAccept drops it and arranges a store-backed repair.
	if !s.replInAccept(m) {
		return
	}
	if n := m.Items(); n > 0 {
		s.stab.markData()
		st := &s.replIn[m.SrcDC] // in range: replInAccept took the chunk
		items := st.takeItems()
		for _, g := range m.Groups {
			for _, tx := range g.Txns {
				for _, kv := range tx.Writes {
					items = append(items, wire.Item{
						Key:   kv.Key,
						Value: kv.Value,
						UT:    g.CT,
						TxID:  tx.TxID,
						SrcDC: tx.SrcDC,
					})
				}
			}
		}
		s.store.ApplyBatchConcurrent(items, s.applyWorkers)
		st.giveItems(items)
		s.metrics.replItems.Add(uint64(n))
	}
	if s.vis != nil {
		for _, g := range m.Groups {
			for range g.Txns {
				s.vis.recordCommit(g.CT)
			}
		}
	}
	// Couple the hybrid clocks of replicas (receive rule); not required for
	// safety — LWW tolerates clock divergence — but keeps snapshot freshness
	// uniform across DCs.
	s.clock.Observe(m.UpTo)
	s.advanceVV(m.SrcDC, m.UpTo, int64(m.Round))

	s.notifyInstalled(s.installedLowerBound())
	s.metrics.replBatches.Add(1)
	s.metrics.replGroups.Add(uint64(len(m.Groups)))
}

// advanceVV moves a version-vector entry forward; entries never regress
// (a repair response may cover less than a batch already applied). Entries
// for DCs that do not replicate this partition are ignored. round labels the
// input for the stabilizer (vvRefreshed): a batch's own label; 0 — a repair
// response — advances the entry without refreshing the input.
func (s *Server) advanceVV(dc topology.DCID, ts hlc.Timestamp, round int64) {
	if int(dc) >= len(s.vv) || !s.vvLive[dc] {
		return
	}
	if s.vv[dc].advance(ts) {
		s.drainVisibility()
	}
	if round != 0 {
		s.stab.vvRefreshed(dc, round)
	}
}

// installedLowerBound is the timestamp below which every transaction — local
// or remote — has been applied on this partition: the minimum over the
// version vector, computed from atomic loads without a lock. BPR reads at
// snapshot t wait until this bound reaches t.
func (s *Server) installedLowerBound() hlc.Timestamp {
	low := hlc.MaxTimestamp
	for dc := range s.vv {
		if !s.vvLive[dc] {
			continue
		}
		if ts := s.vv[dc].Load(); ts < low {
			low = ts
		}
	}
	return low
}

// installWaiter parks a BPR read until the installed bound reaches ts.
type installWaiter struct {
	ts    hlc.Timestamp
	ready chan struct{}
}

// waitInstalled blocks until the installed lower bound reaches ts or the
// server stops; it returns how long it waited (the paper's §V-B "blocking
// time" metric; zero when the read proceeded immediately).
func (s *Server) waitInstalled(ts hlc.Timestamp) time.Duration {
	if s.installedLowerBound() >= ts {
		return 0
	}
	w := installWaiter{ts: ts, ready: make(chan struct{})}
	s.waitMu.Lock()
	s.waiters = append(s.waiters, w)
	s.waitMu.Unlock()
	// Re-check after publishing the waiter: the bound advances lock-free, so
	// it may have passed ts between the first check and the registration — a
	// notifyInstalled in that window would not have seen us. Self-notifying
	// here closes the race (it wakes every waiter the bound now covers).
	if s.installedLowerBound() >= ts {
		s.notifyInstalled(s.installedLowerBound())
	}

	start := time.Now()
	select {
	case <-w.ready:
	case <-s.stopped:
	}
	return time.Since(start)
}

// notifyInstalled wakes every waiter whose target the bound has reached.
func (s *Server) notifyInstalled(bound hlc.Timestamp) {
	s.waitMu.Lock()
	if len(s.waiters) == 0 {
		s.waitMu.Unlock()
		return
	}
	remaining := s.waiters[:0]
	var wake []installWaiter
	for _, w := range s.waiters {
		if w.ts <= bound {
			wake = append(wake, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	s.waiters = remaining
	s.waitMu.Unlock()
	for _, w := range wake {
		close(w.ready)
	}
}
