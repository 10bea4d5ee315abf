package server

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// replSyncBackoffCap bounds the ReplSyncReq retry backoff: long enough to
// stop hammering a degraded sender, short enough that a lost repair
// response never freezes a stream for more than a couple of seconds.
const replSyncBackoffCap = 2 * time.Second

// Replication-stream repair.
//
// The replicate channel is fire-and-forget: each ΔR round's chunks carry a
// cumulative watermark (UpTo) that the receiver's version-vector entry
// advances to. On a lossy link that design has a silent failure mode — drop
// one chunk and the next one's watermark covers the hole without the data,
// the UST certifies snapshots above the missing writes, and causal reads
// are broken forever with no error anywhere. The nemesis blackhole
// scenarios surfaced exactly that.
//
// The repair keeps the channel fire-and-forget but makes loss evident and
// recoverable:
//
//   - every chunk carries (Epoch, Seq): Seq increments per destination per
//     chunk; Epoch identifies the sender incarnation (a restart resets Seq
//     with the rest of volatile state);
//   - a receiver accepts a chunk only at the exact next (Epoch, Seq). On
//     any mismatch it freezes the stream — the vv entry stops advancing,
//     which freezes the UST at the hole (safe, invisible writes stay
//     invisible) — and casts a ReplSyncReq carrying its watermark;
//   - the sender answers from its store (the durable record of everything
//     it ever replicated, so no retransmission log is needed): every
//     version in (FromTS, ub], plus the stream position where sequenced
//     delivery resumes. The response is emitted inside the apply round,
//     immediately before the chunk carrying NextSeq, so on the FIFO link
//     the repair and the resumption are gapless;
//   - the receiver applies the repair, advances its vv entry to UpTo, and
//     thaws the stream.
//
// Requests are retried (paced by replSyncRetry) as long as mismatching
// chunks keep arriving, so a repair request lost to the same fault that
// caused the hole heals once the link does. Every chunk a server sends is
// sequenced; an unsequenced one (Epoch 0) is dropped on arrival.

// replInStream is the receiver-side cursor for one source DC's stream. An
// epoch of zero means no sender incarnation has been latched yet.
type replInStream struct {
	mu      sync.Mutex
	epoch   uint64
	nextSeq uint64
	syncing bool
	// Re-request pacing: exponential backoff with jitter. A fixed retick
	// would hammer a still-degraded or bandwidth-starved sender in
	// lockstep with every other frozen receiver; backoff spreads the
	// retries out and jitter desynchronizes them.
	backoff time.Duration
	nextReq time.Time
}

// replInAccept decides whether a replication chunk is the next in-order
// element of its stream. Out-of-order chunks are dropped after (rate-
// limitedly) requesting a store-backed repair from the sender.
func (s *Server) replInAccept(m wire.ReplicateBatch) bool {
	// Epoch 0 names no sender incarnation: no server sends it, and a fresh
	// cursor (epoch 0, nextSeq 0) would otherwise take it for its own next
	// chunk. Drop it without touching the cursor.
	if int(m.SrcDC) >= len(s.replIn) || m.Epoch == 0 {
		return false
	}
	st := &s.replIn[m.SrcDC]
	st.mu.Lock()
	if st.epoch == 0 && m.Seq == 1 {
		// First contact with this sender incarnation from a fresh cursor:
		// latch onto its epoch and accept from the top of the stream.
		st.epoch = m.Epoch
		st.nextSeq = 1
	}
	if m.Epoch == st.epoch && m.Seq == st.nextSeq {
		st.nextSeq++
		st.mu.Unlock()
		return true
	}
	sendReq := s.repairPacingLocked(st)
	st.mu.Unlock()
	if sendReq {
		s.castRepairReq(m.SrcDC)
	}
	return false
}

// repairPacingLocked arms or advances a stream's repair-request pacing state
// and reports whether a request should fire now: the next retry is scheduled
// at backoff/2 + uniform(0, backoff) from now, then the backoff doubles up
// to the cap. Caller holds st.mu. Shared by the chunk-mismatch path
// (replInAccept) and the status pre-request path (replPreRequest), so the
// two can never amplify each other into a request storm.
func (s *Server) repairPacingLocked(st *replInStream) bool {
	now := time.Now()
	if !st.syncing {
		st.syncing = true
		st.backoff = s.replSyncRetry
		st.nextReq = now // first request fires immediately
	}
	if now.Before(st.nextReq) {
		return false
	}
	st.nextReq = now.Add(st.backoff/2 + time.Duration(rand.Int63n(int64(st.backoff))))
	if st.backoff < replSyncBackoffCap {
		st.backoff *= 2
	}
	return true
}

// castRepairReq casts a ReplSyncReq toward srcDC's replica of this partition
// with this receiver's true watermark.
func (s *Server) castRepairReq(srcDC topology.DCID) {
	var from hlc.Timestamp
	if int(srcDC) < len(s.vv) {
		from = s.vv[srcDC].Load()
	}
	s.metrics.replSyncReq.Add(1)
	_ = s.peer.Cast(topology.ServerID(srcDC, s.self.Partition()),
		wire.ReplSyncReq{ReqDC: s.self.DC, FromTS: from})
}

// replPreRequest reacts to a degraded sender's ReplStatus summary: the
// summary names the sequence number the sender's next fresh chunk will carry
// (NextSeq), so a receiver whose cursor is behind it — inevitable after a
// shed window — can request the store-backed repair while the link is still
// quiet, instead of discovering the gap only when the first post-resume
// chunk arrives and is dropped.
func (s *Server) replPreRequest(m wire.ReplStatus) {
	if int(m.SrcDC) >= len(s.replIn) {
		return
	}
	st := &s.replIn[m.SrcDC]
	st.mu.Lock()
	// Only a latched stream can be known-behind; a fresh cursor latches onto
	// the stream's first chunk instead of repairing from zero.
	behind := st.epoch != 0 && (m.Epoch != st.epoch || m.NextSeq > st.nextSeq)
	sendReq := behind && s.repairPacingLocked(st)
	st.mu.Unlock()
	if sendReq {
		s.castRepairReq(m.SrcDC)
	}
}

// handleReplSyncReq records a peer's repair request; the next apply round
// answers it (maybeReplSync) so the response slots into the stream at a
// known sequence position. Concurrent requests from the same DC keep the
// most conservative watermark.
func (s *Server) handleReplSyncReq(m wire.ReplSyncReq) {
	if s.flow != nil {
		// Flow-controlled path: the destination's pump owns the stream
		// position and serves the repair itself, budget-paced and
		// prioritized below fresh rounds (with anti-starvation aging).
		if p := s.flow.pumpFor(m.ReqDC); p != nil {
			p.requestRepair(m.FromTS)
		}
		return
	}
	s.syncMu.Lock()
	if cur, ok := s.syncReqs[m.ReqDC]; !ok || m.FromTS < cur {
		s.syncReqs[m.ReqDC] = m.FromTS
	}
	s.syncMu.Unlock()
}

// maybeReplSync, called by applyTick for each peer after the round's apply
// and version-clock publication (ub) and before the round's chunks are
// sequenced, answers a pending repair request from this peer's DC.
func (s *Server) maybeReplSync(peer topology.NodeID, ub hlc.Timestamp) {
	s.syncMu.Lock()
	fromTS, ok := s.syncReqs[peer.DC]
	if ok {
		delete(s.syncReqs, peer.DC)
	}
	s.syncMu.Unlock()
	if !ok {
		return
	}
	for _, resp := range s.buildRepairChunks(s.store.VersionsIn(fromTS, ub), s.replSeq[peer]+1, ub) {
		s.metrics.noteRepairChunk(wire.ApproxSize(resp))
		_ = s.peer.Cast(peer, resp)
	}
	s.metrics.replSyncServed.Add(1)
}

// buildRepairChunks slices a store-backed repair range into ReplSyncResp
// chunks bounded by the replication batch budget (Config.BatchMaxItems /
// BatchMaxBytes), so a catch-up after a long shed window never hits the —
// typically still constrained — link as one giant frame. The store returns
// versions in map-iteration order, so the items are first sorted by update
// time; chunks then split only between distinct update timestamps, which
// makes each interior chunk's UpTo (its last item's UT) a bound the receiver
// may safely publish after applying the chunk: everything at or below it is
// in this or an earlier chunk. The final chunk carries UpTo = ub, covering
// the idle tail. Every chunk names the same resume position (epoch,
// nextSeq); the receiver's cursor latch is idempotent, so the chunks slot
// sequentially into the stream in FIFO order.
func (s *Server) buildRepairChunks(items []wire.Item, nextSeq uint64, ub hlc.Timestamp) []wire.ReplSyncResp {
	sort.Slice(items, func(i, j int) bool { return items[i].UT < items[j].UT })
	maxItems, maxBytes := s.cfg.BatchMaxItems, s.cfg.BatchMaxBytes
	newChunk := func() wire.ReplSyncResp {
		return wire.ReplSyncResp{SrcDC: s.self.DC, Epoch: s.replEpoch, NextSeq: nextSeq}
	}
	var chunks []wire.ReplSyncResp
	cur := newChunk()
	bytes := 0
	for i, it := range items {
		itBytes := len(it.Key) + len(it.Value) + repairItemHeadSize
		// Split between UT groups only: a chunk may close here iff the next
		// item's timestamp is strictly above the last included one.
		if len(cur.Items) > 0 && it.UT != items[i-1].UT &&
			(len(cur.Items)+1 > maxItems || bytes+itBytes > maxBytes) {
			cur.UpTo = items[i-1].UT
			chunks = append(chunks, cur)
			cur = newChunk()
			bytes = 0
		}
		cur.Items = append(cur.Items, it)
		bytes += itBytes
	}
	cur.UpTo = ub
	return append(chunks, cur)
}

// repairItemHeadSize is wire.ApproxSize's per-item framing for ReplSyncResp
// (length prefixes, UT, TxID, SrcDC).
const repairItemHeadSize = 4 + 4 + 16 + 8 + 4

// handleReplSyncResp installs a repair: apply the missing versions, thaw
// the stream at the sender-designated position, and only then republish the
// version-vector entry (store-then-publish, as everywhere).
func (s *Server) handleReplSyncResp(m wire.ReplSyncResp) {
	if int(m.SrcDC) >= len(s.replIn) {
		return
	}
	if len(m.Items) > 0 {
		s.store.ApplyBatchConcurrent(m.Items, s.cfg.ApplyWorkers)
		s.metrics.replItems.Add(uint64(len(m.Items)))
		s.stab.markData()
	}
	st := &s.replIn[m.SrcDC]
	st.mu.Lock()
	st.epoch = m.Epoch
	st.nextSeq = m.NextSeq
	st.syncing = false
	st.mu.Unlock()
	s.clock.Observe(m.UpTo)
	s.advanceVV(m.SrcDC, m.UpTo, 0)
	s.notifyInstalled(s.installedLowerBound())
	s.metrics.replSyncApplied.Add(1)
}
