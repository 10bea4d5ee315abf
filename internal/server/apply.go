package server

import (
	"sort"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// This file implements the apply/replicate loop and the replication receive
// path (Algorithm 4 lines 5–33), plus the installed-snapshot waiters that the
// BPR baseline's blocking reads park on.

// applyTick runs every ΔR (Alg. 4 lines 5–22) for the round labelled round,
// the index of the wall-clock boundary it was armed for. It computes the upper
// bound ub below which no future transaction can commit, applies every
// committed transaction with ct ≤ ub to the store in commit-timestamp order,
// replicates the applied groups to peer replicas in batches carrying the
// label, advances the local version clock to ub, heartbeats when there was
// nothing to replicate, and hands the advanced entry to the stabilizer
// (roundTick).
//
// Note on ct ≤ ub versus the paper's ct < ub (Alg. 4 line 10): after setting
// VV[self] = ub the server claims to have installed everything with
// timestamp up to and including ub, so a committed transaction with ct == ub
// must be applied in the same round. Applying ct ≤ ub is safe because ub is
// strictly below every prepared timestamp and the hybrid clock, hence below
// any future commit timestamp.
//
// The loop no longer takes a server-wide lock. ub is assembled from the
// sharded 2PC table as min(ub0, min{prepared.pt} − 1), where ub0 is a clock
// reading taken before any shard is visited — the ordering that makes the
// per-shard scan safe against concurrent prepares (see twoPCTable). The
// committed drain then visits shards a second time; entries that move from
// Prepared to Committed between the two passes carry ct > ub by the same
// argument, so the drain misses nothing the published ub covers.
func (s *Server) applyTick(round int64) {
	// Post-restart recovery hold: a freshly restarted server idles its whole
	// apply plane — no store apply, no version-clock advance, no replication,
	// no heartbeat — until the hold expires. Committed transactions (normal
	// and CommitRecover-recovered alike) queue up meanwhile; to every peer
	// the server is merely slow, the UST stays frozen below any commit that
	// may have been lost in the crash window, and the first round after the
	// hold drains everything in one correctly-bounded batch.
	if !s.holdUntil.IsZero() && time.Now().Before(s.holdUntil) {
		s.stab.roundTick(round, false)
		return
	}
	// ub0 ← max{Clock, HLC}, advanced as a local event so that any prepare
	// not seen by the scan below proposes strictly above it. MUST precede
	// the minPrepared scan.
	ub0 := s.clock.Now()
	ub := ub0
	if minPT, ok := s.twoPC.minPrepared(); ok && minPT-1 < ub {
		// ub ← min{p.pt} − 1: nothing can commit at or below the smallest
		// prepared proposal (commit times are maxima over proposals).
		ub = minPT - 1
	}

	// Collect committed transactions with ct ≤ ub, ordered by (ct, id).
	ready := s.twoPC.drainCommitted(s.applyReady[:0], ub)
	sort.Sort(committedByCT(ready))

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
		s.store.ApplyBatchConcurrent(items, s.cfg.ApplyWorkers)
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
	peers := s.cfg.Topology.PeerReplicas(s.self.Partition(), s.self.DC)

	s.notifyInstalled(s.installedLowerBound())

	// The round's commit-timestamp groups plus its heartbeat coalesce into
	// (usually) one ReplicateBatch per destination — one wire write per peer
	// per ΔR instead of one per commit timestamp.
	chunks, sizes := buildReplicateBatches(s.self.DC, round, ready, ub, s.cfg.BatchMaxItems, s.cfg.BatchMaxBytes)
	if s.flow != nil {
		// Flow-controlled path: hand the round to each destination's pump,
		// which owns sequencing, pacing, coalescing and repair service for
		// that peer (flowpump.go). The builder's per-chunk sizes ride along
		// so the pumps never re-walk the payload.
		for _, peer := range peers {
			if p := s.flow.pumps[peer]; p != nil {
				p.submit(chunks, sizes, ub)
			}
		}
	} else {
		// Piggyback the current stable values on the round's chunks:
		// receivers adopt them without waiting for the down-tree gossip.
		ust, sold := s.ust.Load(), s.sold.Load()
		out := make([]wire.Message, len(chunks))
		for _, peer := range peers {
			// Answer any pending repair request from this peer's DC first:
			// the response names the sequence the stream resumes at, and on
			// the FIFO link it precedes the chunk carrying that sequence.
			s.maybeReplSync(peer, ub)
			for i, c := range chunks {
				b := c.(wire.ReplicateBatch)
				s.replSeq[peer]++
				b.Epoch, b.Seq = s.replEpoch, s.replSeq[peer]
				b.UST, b.Sold = ust, sold
				out[i] = b
			}
			_ = s.peer.CastBatch(peer, out)
		}
	}
	if len(ready) > 0 {
		s.metrics.txApplied.Add(uint64(len(ready)))
	}
	// Recycle the drain scratch; the outbound messages hold their own
	// references to the write-sets, so clearing only drops this loop's.
	clear(ready)
	s.applyReady = ready[:0]
	s.stab.roundTick(round, true)
}

// buildReplicateBatches coalesces one ΔR round (ready, sorted by commit
// timestamp) into ReplicateBatch chunks labelled round and bounded by maxItems
// write items and ~maxBytes of payload. Chunks split only between
// commit-timestamp groups so every chunk's UpTo — the last carried CT for
// interior chunks, ub for the final one — is a bound the receiver may safely
// advance its version vector to; a single group larger than both caps still
// travels whole. The final chunk doubles as the round's heartbeat: with
// nothing to replicate the result is one empty batch carrying only UpTo = ub.
//
// The second return value carries each chunk's wire.ApproxSize, accumulated
// while the groups are built: the builder walks every key/value anyway, so
// the flow pumps can account queue depth and token-bucket charges without a
// second full-payload walk per destination (replBatchBaseSize + the group
// sums reproduce ApproxSize exactly; batchsize_test.go pins the equality).
func buildReplicateBatches(src topology.DCID, round int64, ready []committedTx, ub hlc.Timestamp, maxItems, maxBytes int) ([]wire.Message, []int) {
	var (
		chunks       []wire.Message
		sizes        []int
		cur          = wire.ReplicateBatch{SrcDC: src, Round: uint64(round)}
		items, bytes int
	)
	for start := 0; start < len(ready); {
		end := start
		for end < len(ready) && ready[end].ct == ready[start].ct {
			end++
		}
		group := wire.ReplicateGroup{
			CT:   ready[start].ct,
			Txns: make([]wire.TxUpdates, 0, end-start),
		}
		gItems := 0
		gBytes := replGroupHeadSize
		for _, c := range ready[start:end] {
			group.Txns = append(group.Txns, wire.TxUpdates{
				TxID:   c.id,
				SrcDC:  c.srcDC,
				Writes: c.writes,
			})
			gItems += len(c.writes)
			gBytes += replTxnHeadSize
			for _, kv := range c.writes {
				// Key/value bytes plus the codec's per-write framing.
				gBytes += len(kv.Key) + len(kv.Value) + replWriteHeadSize
			}
		}
		if len(cur.Groups) > 0 && (items+gItems > maxItems || bytes+gBytes > maxBytes) {
			cur.UpTo = cur.Groups[len(cur.Groups)-1].CT
			chunks = append(chunks, cur)
			sizes = append(sizes, emptyBatchSize+bytes)
			cur = wire.ReplicateBatch{SrcDC: src, Round: uint64(round)}
			items, bytes = 0, 0
		}
		cur.Groups = append(cur.Groups, group)
		items += gItems
		bytes += gBytes
		start = end
	}
	cur.UpTo = ub
	return append(chunks, cur), append(sizes, emptyBatchSize+bytes)
}

// Per-level framing constants of wire.ApproxSize's ReplicateBatch walk, so
// the builder's running byte count reproduces the estimate exactly (the base
// is emptyBatchSize in flowpump.go).
const (
	replGroupHeadSize = 16 + 4    // CT, txn count
	replTxnHeadSize   = 8 + 4 + 4 // TxID, SrcDC, write count
	replWriteHeadSize = 4 + 4     // key/value length prefixes
)

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
		items := make([]wire.Item, 0, n)
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
		s.store.ApplyBatchConcurrent(items, s.cfg.ApplyWorkers)
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
