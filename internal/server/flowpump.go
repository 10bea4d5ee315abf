package server

import (
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// Replication flow control.
//
// Every ΔR round reaches a peer replica through that destination's pump:
// applyTick hands the pump the round's chunks (submit) and then steps it in
// place (step). A step casts what the pump's credit admits, serves a repair
// that is due and, while degraded, a periodic summary. Pumps have no goroutine
// and read no clock; all pacing is counted in round labels:
//
//   - credit refills by Config.BandwidthBudget × ΔR per elapsed round, up to a
//     burst of max(budget/4, 4 KiB). The chunk at the head of the stream is
//     debited in full and leaves once the balance is back at zero or above,
//     so a chunk larger than the burst drives the balance negative and waits
//     its debt out instead of being refused or fragmented, and the bytes cast
//     never exceed the burst plus the budget's share of the elapsed rounds.
//     A budget of 0 admits everything: a round's chunks leave inside the
//     round that built them;
//   - the send queue is bounded by 4 × BatchMaxBytes, and never below one
//     empty chunk so that a heartbeat always fits. While the pump is behind, newly submitted rounds coalesce into the queue tail
//     (commit-timestamp groups concatenate, the cumulative UpTo folds) —
//     valid because every round's group timestamps lie strictly above the
//     previous round's UpTo — so pressure grows the tail entry, not the
//     queue;
//   - a round that would cross the bound is shed and the pump degrades to
//     summary mode for that destination: later rounds are shed too (not
//     queued — the local store already holds their data and remains the
//     durable retransmission record) and a tiny ReplStatus is cast every
//     statusEvery rounds instead. The receiver's vv entry for this DC simply
//     stops advancing, which is UST-safe: the shed writes stay invisible
//     everywhere. Once the queue has drained to BatchMaxBytes the pump
//     resumes; the first post-shed chunk deliberately skips one sequence
//     number so the receiver detects the gap, freezes, and recovers through
//     the ordinary store-backed ReplSyncReq/Resp repair path with its own
//     true watermark — no trust is placed in the sender's view of what the
//     receiver has;
//   - fresh rounds outrank ReplSyncResp catch-up traffic, with an aging
//     bypass (a pending repair is served after at most repairAgingLimit
//     fresh sends) so the every-ΔR heartbeat stream cannot starve repairs.
//     Repair chunks are paced like fresh ones; a repair the credit cuts short
//     finishes before any fresh chunk is cast, so its chunks stay contiguous
//     in the stream.

// repairAgingLimit bounds how many fresh sends may preempt a pending
// repair. Every ΔR emits a chunk, so without the bypass a strict
// fresh-first policy would starve repairs forever.
const repairAgingLimit = 4

// minBurst floors the credit burst of small budgets.
const minBurst = 4 << 10

// flowEntry is one queued (possibly coalesced) replication chunk.
type flowEntry struct {
	batch wire.ReplicateBatch
	bytes int
	// owned marks batch.Groups as pump-private: applyTick shares one
	// chunk's Groups backing array across every destination's pump, so the
	// first merge into this entry must copy before appending.
	owned bool
	// burn marks the first chunk after a shed window: its send skips one
	// sequence number so the receiver detects the hole.
	burn bool
}

// flowPump is the replication sender for one destination. Its state is
// guarded by mu, which the apply round, the repair handler, SetFlowBudget and
// stats readers take; only the apply round sends.
type flowPump struct {
	s           *Server
	dest        topology.NodeID
	high        int   // queue byte bound (admission-checked before enqueue)
	low         int   // resume threshold after degrading
	statusEvery int64 // rounds between ReplStatus summaries while degraded

	// out is step's send scratch, reused across rounds (apply round only).
	out []wire.Message

	mu sync.Mutex
	// Credit, in bytes: perRound is budget × ΔR (0: unlimited), debited
	// what the chunk at the head of the stream has been charged so far,
	// round the label of the last step.
	perRound    float64
	burst       float64
	credit      float64
	debited     int
	round       int64
	entries     []flowEntry
	queuedBytes int // never exceeds high
	degraded    bool
	holePending bool // a shed happened since the last sent chunk
	latestUB    hlc.Timestamp
	seq         uint64
	statusRound int64 // label of the last ReplStatus

	repairPending   bool
	repairFrom      hlc.Timestamp
	repair          []wire.ReplSyncResp // chunks of the repair being served
	freshSinceAging int

	// Per-destination observability (FlowStats, and summed by Metrics).
	maxQueuedBytes  int
	coalesced       uint64
	shedRounds      uint64
	degradedEntries uint64
	degradedExits   uint64
	throttledRounds uint64
	statusSent      uint64
}

// FlowDestStats is a point-in-time view of one destination's pump.
type FlowDestStats struct {
	Dest            topology.NodeID
	QueueLen        int
	QueuedBytes     int
	MaxQueuedBytes  int
	Degraded        bool
	Coalesced       uint64 // rounds merged into an already-queued entry
	ShedRounds      uint64 // rounds dropped in degraded mode
	DegradedEntries uint64
	DegradedExits   uint64
	ThrottledFor    time.Duration // rounds a chunk waited for credit, × ΔR
	StatusSent      uint64        // ReplStatus summaries cast
}

// newFlowPump builds the pump toward dest with the bounds derived from the
// chunk cap and the server's configured budget.
func newFlowPump(s *Server, dest topology.NodeID) *flowPump {
	every := s.cfg.rounds(max(16*s.cfg.ApplyInterval, 50*time.Millisecond))
	p := &flowPump{
		s:           s,
		dest:        dest,
		high:        max(4*s.cfg.BatchMaxBytes, emptyBatchSize), // a heartbeat always fits
		low:         s.cfg.BatchMaxBytes,
		statusEvery: every,
		statusRound: -every, // the first summary is not held back
	}
	p.setBudget(s.cfg.BandwidthBudget)
	return p
}

// setBudget sets the budget in bytes/second (≤ 0: unlimited) and resets the
// balance to the new burst, so the change takes effect at the next step:
// raising the budget clears accumulated debt (the heal path relies on this to
// drain a backlog fast), lowering it starts from the smaller burst. The chunk
// at the head is charged anew.
func (p *flowPump) setBudget(rate int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.perRound = float64(max(rate, 0)) * p.s.cfg.ApplyInterval.Seconds()
	p.burst = float64(max(rate/4, minBurst))
	p.credit = p.burst
	p.debited = 0
}

// refill credits the rounds elapsed since the last step. Caller holds p.mu.
func (p *flowPump) refill(round int64) {
	if round > p.round {
		p.credit = min(p.credit+float64(round-p.round)*p.perRound, p.burst)
		p.round = round
	}
}

// take charges the chunk at the head of the stream, n bytes, and reports
// whether it may be cast now: it is debited what it has not paid yet — all of
// it when it first comes up, what it grew by if rounds coalesced into it since
// — and leaves once the balance is back at zero or above. Caller holds p.mu.
func (p *flowPump) take(n int) bool {
	if p.perRound == 0 {
		return true
	}
	p.credit -= float64(n - p.debited)
	if p.credit < 0 {
		p.debited = n
		return false
	}
	p.debited = 0
	return true
}

// pumpFor returns the pump toward a DC's peer replica (nil if none).
func (s *Server) pumpFor(dc topology.DCID) *flowPump {
	for _, p := range s.pumps {
		if p.dest.DC == dc {
			return p
		}
	}
	return nil
}

// submit hands one ΔR round's chunks to the pump, which copies them: chunks
// is the round's scratch, and the Groups backings behind it are shared across
// destinations and must not be mutated in place. sizes, when non-nil,
// carries each chunk's wire.ApproxSize as summed by buildReplicateBatches,
// so the pumps skip the per-destination re-walk of the payload; a nil sizes
// (tests, hand-built chunks) falls back to computing it here.
func (p *flowPump) submit(chunks []wire.ReplicateBatch, sizes []int, ub hlc.Timestamp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latestUB = ub
	p.resumeIfDrained()
	if p.degraded {
		// Shed the whole round. The local store applied it already, so the
		// eventual repair rebuilds it from there; queueing nothing is what
		// keeps sender memory bounded.
		p.holePending = true
		p.shedRounds++
		return
	}
	for i, b := range chunks {
		var size int
		if sizes != nil {
			size = sizes[i]
		} else {
			size = wire.ApproxSize(b)
		}
		if p.queuedBytes+size > p.high {
			// Admission check before enqueue: the queue-byte bound is a
			// hard invariant, so the round that would cross it is the first
			// shed round.
			p.degraded = true
			p.degradedEntries++
			p.holePending = true
			p.shedRounds++
			return
		}
		burn := p.holePending
		p.holePending = false
		// Coalesce under pressure: a non-empty queue means the pump is
		// behind, so fold this chunk into the tail instead of growing the
		// queue — unless the tail sits on the other side of a shed window
		// (merging across the hole would let the tail's folded UpTo cover
		// shed data that was never queued). The admission check above
		// already bounds the merged tail.
		if n := len(p.entries); n > 0 && !burn {
			p.queuedBytes += p.entries[n-1].merge(b, size)
			p.coalesced++
		} else {
			p.entries = append(p.entries, flowEntry{batch: b, bytes: size, burn: burn})
			p.queuedBytes += size
		}
		p.maxQueuedBytes = max(p.maxQueuedBytes, p.queuedBytes)
	}
}

// resumeIfDrained leaves degraded mode once the queue has drained to the
// low-water mark. Caller holds p.mu.
func (p *flowPump) resumeIfDrained() {
	if p.degraded && p.queuedBytes <= p.low {
		p.degraded = false
		p.degradedExits++
	}
}

// emptyBatchSize is wire.ApproxSize of a ReplicateBatch with no groups — the
// fixed header a coalesced merge does not pay twice. The estimate is
// additive, so a chunk's size less this header is its groups' wire.GroupSize.
var emptyBatchSize = wire.ApproxSize(wire.ReplicateBatch{})

// merge folds chunk b (of approximate size bytes) into the entry: groups
// concatenate in order, and the cumulative UpTo and the round label fold to the
// newer ones.
// Valid because every round's group timestamps lie strictly above the
// previous round's UpTo, so the merged batch is itself a well-formed chunk.
// The entry's Groups backing array is copied on first merge — applyTick
// shares one chunk's Groups across every destination's pump, so appending
// in place would corrupt the other pumps' queues. Returns the entry's byte
// growth (the chunk's payload without a second copy of the fixed header).
func (e *flowEntry) merge(b wire.ReplicateBatch, size int) int {
	if !e.owned {
		e.batch.Groups = append([]wire.ReplicateGroup(nil), e.batch.Groups...)
		e.owned = true
	}
	e.batch.Groups = append(e.batch.Groups, b.Groups...)
	e.batch.UpTo, e.batch.Round = max(e.batch.UpTo, b.UpTo), max(e.batch.Round, b.Round)
	delta := max(size-emptyBatchSize, 0)
	e.bytes += delta
	return delta
}

// requestRepair records a receiver's ReplSyncReq for the next step to serve.
// Concurrent requests keep the most conservative watermark.
func (p *flowPump) requestRepair(from hlc.Timestamp) {
	p.mu.Lock()
	if !p.repairPending || from < p.repairFrom {
		p.repairFrom = from
	}
	p.repairPending = true
	p.mu.Unlock()
}

// step runs the pump for the round labelled round, right after that round's
// submit: it casts every queued chunk the credit admits, serves a repair that
// is due, and while degraded casts the ReplStatus summary every
// statusEvery-th round — all of it in one CastBatch, in stream order.
func (p *flowPump) step(round int64) {
	s := p.s
	out := p.out[:0]
	ust, sold := s.ust.Load(), s.sold.Load()
	p.mu.Lock()
	p.refill(round)
	for {
		if len(p.repair) == 0 && p.repairPending &&
			(len(p.entries) == 0 || p.freshSinceAging >= repairAgingLimit) {
			p.startRepair()
		}
		if len(p.repair) > 0 {
			// An unfinished repair goes first: its chunks all name the same
			// resume position, so no fresh chunk may come between them.
			r := p.repair[0]
			size := wire.ApproxSize(r)
			if !p.take(size) {
				p.throttledRounds++
				break
			}
			s.metrics.noteRepairChunk(size)
			out = append(out, r)
			p.repair[0] = wire.ReplSyncResp{}
			if p.repair = p.repair[1:]; len(p.repair) == 0 {
				p.repair = nil
				s.metrics.replSyncServed.Add(1)
			}
			continue
		}
		if len(p.entries) == 0 {
			break
		}
		e := p.entries[0]
		if !p.take(e.bytes) {
			p.throttledRounds++
			break
		}
		n := copy(p.entries, p.entries[1:])
		p.entries[n] = flowEntry{}
		p.entries = p.entries[:n]
		p.queuedBytes -= e.bytes
		if p.repairPending {
			p.freshSinceAging++
		}
		if e.burn {
			// Skip one sequence number: the receiver sees the gap, freezes
			// its vv entry (UST-safe) and requests a store-backed repair with
			// its own watermark — the only party that knows what it truly has.
			p.seq++
		}
		p.seq++
		e.batch.Epoch, e.batch.Seq = s.replEpoch, p.seq
		// Piggyback the freshest stable values: the receiver adopts them
		// without waiting for the down-tree gossip, which an idle root may
		// then withhold.
		e.batch.UST, e.batch.Sold = ust, sold
		out = append(out, e.batch)
		p.resumeIfDrained()
	}
	if p.degraded && round-p.statusRound >= p.statusEvery {
		// Degraded-mode summary, not charged to the credit: summary mode
		// exists to quiet the link, and the status is the minimal control
		// signal (~80 bytes).
		p.statusRound = round
		p.statusSent++
		out = append(out, wire.ReplStatus{
			SrcDC:       s.self.DC,
			Epoch:       s.replEpoch,
			NextSeq:     p.nextFreshSeq(),
			UpTo:        p.latestUB,
			UST:         ust,
			Sold:        sold,
			QueuedBytes: uint64(p.queuedBytes),
		})
	}
	p.mu.Unlock()
	_ = s.peer.CastBatch(p.dest, out)
	clear(out)
	p.out = out[:0]
}

// startRepair turns the pending repair request into the chunks step casts
// next: everything the store holds in (repairFrom, latestUB], resuming the
// stream at the next sequence number. p.mu is released around the store read;
// only the repair handler, SetFlowBudget and stats readers can take it
// meanwhile. Caller holds p.mu.
func (p *flowPump) startRepair() {
	from, upTo := p.repairFrom, p.latestUB
	p.repairPending = false
	p.freshSinceAging = 0
	// The repair covers everything the store holds up to latestUB —
	// including any shed window — so queued burn markers are moot: the
	// receiver's cursor is about to be reset past the hole.
	p.holePending = false
	for i := range p.entries {
		p.entries[i].burn = false
	}
	nextSeq := p.seq + 1
	p.mu.Unlock()
	chunks := p.s.buildRepairChunks(p.s.store.VersionsIn(from, upTo), nextSeq, upTo)
	p.mu.Lock()
	p.repair = chunks
}

// nextFreshSeq is the sequence number the first post-backlog fresh chunk will
// carry: queued entries each consume one, and every pending burn (queued or
// not yet materialized) consumes one more. Naming it in the summary lets the
// receiver pre-request the repair during the shed window instead of
// discovering the gap only when the sender resumes. Caller holds p.mu.
func (p *flowPump) nextFreshSeq() uint64 {
	next := p.seq + 1 + uint64(len(p.entries))
	for _, e := range p.entries {
		if e.burn {
			next++
		}
	}
	if p.holePending {
		next++
	}
	return next
}

// handleReplStatus is the receiver side of the degraded-mode summary:
// observe the sender's clock (coupling only — UpTo certifies nothing, the
// data below it was never delivered), adopt the piggybacked stable values
// (safe: a published UST was certified by a complete root round and is a
// lower bound on what this receiver has installed), and pre-request the
// repair the summary's NextSeq reveals. The version vector is deliberately
// NOT advanced.
func (s *Server) handleReplStatus(m wire.ReplStatus) {
	s.clock.Observe(m.UpTo)
	if m.UST != 0 {
		s.applyStable(m.UST, m.Sold)
	}
	s.metrics.replStatusRecv.Add(1)
	if m.NextSeq != 0 {
		s.replPreRequest(m)
	}
}

// SetFlowBudget sets every destination's replication bandwidth budget at
// runtime, in bytes/second (0: unlimited). Operators use it to open the
// throttle after a constrained link heals so a degraded peer's backlog
// drains quickly.
func (s *Server) SetFlowBudget(rate int) {
	for _, p := range s.pumps {
		p.setBudget(rate)
	}
}

// FlowStats returns per-destination flow-control statistics.
func (s *Server) FlowStats() []FlowDestStats {
	out := make([]FlowDestStats, 0, len(s.pumps))
	for _, p := range s.pumps {
		p.mu.Lock()
		out = append(out, FlowDestStats{
			Dest:            p.dest,
			QueueLen:        len(p.entries),
			QueuedBytes:     p.queuedBytes,
			MaxQueuedBytes:  p.maxQueuedBytes,
			Degraded:        p.degraded,
			Coalesced:       p.coalesced,
			ShedRounds:      p.shedRounds,
			DegradedEntries: p.degradedEntries,
			DegradedExits:   p.degradedExits,
			ThrottledFor:    time.Duration(p.throttledRounds) * s.cfg.ApplyInterval,
			StatusSent:      p.statusSent,
		})
		p.mu.Unlock()
	}
	return out
}
