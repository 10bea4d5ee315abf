package server

import (
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// Replication flow control.
//
// Without it the apply loop is fire-and-forget: every ΔR round's chunks go
// straight to the transport, so a slow WAN link or a stalled replica makes
// the sender buffer without limit. The flow-control layer interposes one
// pump per destination between applyTick and the transport:
//
//   - a token bucket paces sends to Config.BandwidthBudget bytes/second
//     (burst Config.BudgetBurst);
//   - the send queue is bounded by Config.FlowHighWater bytes. While the
//     pump is behind, newly submitted rounds coalesce into the queue tail
//     (commit-timestamp groups concatenate, the cumulative UpTo folds) —
//     valid because every round's group timestamps lie strictly above the
//     previous round's UpTo — so pressure grows the tail entry, not the
//     queue;
//   - past the high-water mark the pump degrades to summary mode for that
//     destination: rounds are shed (not queued — the local store already
//     holds their data and remains the durable retransmission record) and
//     a tiny ReplStatus is cast periodically instead. The receiver's vv
//     entry for this DC simply stops advancing, which is UST-safe: the
//     shed writes stay invisible everywhere. Below the low-water mark the
//     pump resumes; the first post-shed chunk deliberately skips one
//     sequence number so the receiver detects the gap, freezes, and
//     recovers through the ordinary store-backed ReplSyncReq/Resp repair
//     path with its own true watermark — no new trust is placed in the
//     sender's view of what the receiver has;
//   - fresh rounds outrank ReplSyncResp catch-up traffic, with an aging
//     bypass (a pending repair is served after at most repairAgingLimit
//     fresh sends) so the every-ΔR heartbeat stream cannot starve repairs.
//
// Pumps run one goroutine per destination, started by Server.Start and
// stopped by the server's stop channel before the transport closes.

// repairAgingLimit bounds how many fresh sends may preempt a pending
// repair. Every ΔR emits a chunk, so without the bypass a strict
// fresh-first policy would starve repairs forever.
const repairAgingLimit = 4

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

// flowPump is the flow-controlled sender for one destination.
type flowPump struct {
	s      *Server
	dest   topology.NodeID
	bucket *transport.TokenBucket
	high   int // queue byte bound (admission-checked before enqueue)
	low    int // resume threshold after degrading
	capMax int // max bytes a single coalesced entry may grow to

	wake chan struct{}

	mu          sync.Mutex
	entries     []flowEntry
	queuedBytes int // queued + in-flight; never exceeds high
	degraded    bool
	holePending bool // a shed happened since the last sent chunk
	latestUB    hlc.Timestamp
	seq         uint64

	repairPending   bool
	repairFrom      hlc.Timestamp
	freshSinceAging int

	// Per-destination observability (served via Server.FlowStats).
	maxQueuedBytes  int
	coalesced       uint64
	shedRounds      uint64
	degradedEntries uint64
	degradedExits   uint64
	throttled       time.Duration
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
	ThrottledFor    time.Duration // cumulative token-bucket pacing delay
	StatusSent      uint64        // ReplStatus summaries cast
}

// flowControl owns the per-destination pumps.
type flowControl struct {
	s     *Server
	mu    sync.Mutex
	pumps map[topology.NodeID]*flowPump
	byDC  map[topology.DCID]*flowPump
}

func newFlowControl(s *Server) *flowControl {
	return &flowControl{
		s:     s,
		pumps: make(map[topology.NodeID]*flowPump),
		byDC:  make(map[topology.DCID]*flowPump),
	}
}

// start creates a pump per peer replica and launches its goroutine. Called
// from Server.Start before any applyTick runs.
func (f *flowControl) start() {
	s := f.s
	capMax := 4 * s.cfg.BatchMaxBytes
	if capMax > s.cfg.FlowHighWater {
		capMax = s.cfg.FlowHighWater
	}
	if capMax <= 0 {
		capMax = s.cfg.FlowHighWater
	}
	f.mu.Lock()
	for _, peer := range s.cfg.Topology.PeerReplicas(s.self.Partition(), s.self.DC) {
		p := &flowPump{
			s:      s,
			dest:   peer,
			bucket: transport.NewTokenBucket(s.cfg.BandwidthBudget, s.cfg.BudgetBurst),
			high:   s.cfg.FlowHighWater,
			low:    s.cfg.FlowLowWater,
			capMax: capMax,
			wake:   make(chan struct{}, 1),
		}
		f.pumps[peer] = p
		f.byDC[peer.DC] = p
		s.loopWG.Add(1)
		go p.run()
	}
	f.mu.Unlock()
}

// pumpFor returns the pump toward a DC's peer replica (nil if none).
func (f *flowControl) pumpFor(dc topology.DCID) *flowPump {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byDC[dc]
}

// setBudget reconfigures every pump's token bucket at runtime.
func (f *flowControl) setBudget(rate, burst int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.pumps {
		p.bucket.SetRate(rate, burst)
	}
}

// stats snapshots every pump.
func (f *flowControl) stats() []FlowDestStats {
	f.mu.Lock()
	pumps := make([]*flowPump, 0, len(f.pumps))
	for _, p := range f.pumps {
		pumps = append(pumps, p)
	}
	f.mu.Unlock()
	out := make([]FlowDestStats, 0, len(pumps))
	for _, p := range pumps {
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
			ThrottledFor:    p.throttled,
			StatusSent:      p.statusSent,
		})
		p.mu.Unlock()
	}
	return out
}

// submit hands one ΔR round's chunks to the pump. Called from the applyTick
// goroutine; chunks are shared across destinations and must not be mutated
// in place. sizes, when non-nil, carries each chunk's wire.ApproxSize as
// accumulated by buildReplicateBatches — the builder walks every key/value
// anyway, so the pumps skip the per-destination re-walk of the payload; a
// nil sizes (tests, hand-built chunks) falls back to computing it here.
func (p *flowPump) submit(chunks []wire.Message, sizes []int, ub hlc.Timestamp) {
	p.mu.Lock()
	p.latestUB = ub
	if p.degraded && p.queuedBytes <= p.low {
		// The pump drained below the low-water mark between rounds (or the
		// queue was empty when it degraded); resume before admission so a
		// drained pump cannot stay degraded forever.
		p.degraded = false
		p.degradedExits++
		p.s.metrics.flowDegradedExits.Add(1)
	}
	if p.degraded {
		// Shed the whole round. The local store applied it already, so the
		// eventual repair rebuilds it from there; queueing nothing is what
		// keeps sender memory bounded.
		p.holePending = true
		p.shedRounds++
		p.s.metrics.flowShedRounds.Add(1)
		p.mu.Unlock()
		return
	}
	for i, c := range chunks {
		b := c.(wire.ReplicateBatch)
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
			p.s.metrics.flowDegradedEntries.Add(1)
			p.holePending = true
			p.shedRounds++
			p.s.metrics.flowShedRounds.Add(1)
			p.mu.Unlock()
			return
		}
		burn := p.holePending
		p.holePending = false
		// Coalesce under pressure: a non-empty queue means the pump is
		// behind, so fold this chunk into the tail instead of growing the
		// queue — unless the tail would outgrow capMax or sits on the other
		// side of a shed window (merging across the hole would let the
		// tail's folded UpTo cover shed data that was never queued).
		if n := len(p.entries); n > 0 && !burn && p.entries[n-1].bytes+size <= p.capMax {
			delta := p.entries[n-1].merge(b, size)
			p.queuedBytes += delta
			p.coalesced++
			p.s.metrics.flowCoalesced.Add(1)
		} else {
			p.entries = append(p.entries, flowEntry{batch: b, bytes: size, burn: burn})
			p.queuedBytes += size
		}
		if p.queuedBytes > p.maxQueuedBytes {
			p.maxQueuedBytes = p.queuedBytes
		}
	}
	p.mu.Unlock()
	p.notify()
}

// emptyBatchSize is the approximate encoded size of a ReplicateBatch with
// no groups — the fixed header a coalesced merge does not pay twice.
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
	delta := size - emptyBatchSize
	if delta < 0 {
		delta = 0
	}
	e.bytes += delta
	return delta
}

// requestRepair records a receiver's ReplSyncReq for the pump to serve.
// Concurrent requests keep the most conservative watermark.
func (p *flowPump) requestRepair(from hlc.Timestamp) {
	p.mu.Lock()
	if !p.repairPending || from < p.repairFrom {
		p.repairFrom = from
	}
	p.repairPending = true
	p.mu.Unlock()
	p.notify()
}

func (p *flowPump) notify() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// statusEvery is how often a degraded pump casts its ReplStatus summary.
func (p *flowPump) statusEvery() time.Duration {
	return max(16*p.s.cfg.ApplyInterval, 50*time.Millisecond)
}

func (p *flowPump) run() {
	s := p.s
	defer s.loopWG.Done()
	tick := time.NewTicker(p.statusEvery())
	defer tick.Stop()
	var lastStatus time.Time
	for {
		select {
		case <-s.stopped:
			return
		case <-p.wake:
		case <-tick.C:
		}
		for p.step() {
			if s.isStopped() {
				return
			}
		}
		// Degraded-mode summary: cast a tiny ReplStatus at the status
		// cadence so the receiver can observe the backlog. It is not
		// charged to the bucket — summary mode exists to quiet the link,
		// and the status is the minimal control signal (~40 bytes).
		p.mu.Lock()
		deg, ub, qb := p.degraded, p.latestUB, p.queuedBytes
		// The sequence the first post-backlog fresh chunk will carry: queued
		// entries each consume one, and every pending burn (queued or not yet
		// materialized) consumes one more. Naming it lets the receiver
		// pre-request the repair during the shed window instead of
		// discovering the gap only when the sender resumes.
		next := p.seq + 1 + uint64(len(p.entries))
		for _, e := range p.entries {
			if e.burn {
				next++
			}
		}
		if p.holePending {
			next++
		}
		p.mu.Unlock()
		if deg && time.Since(lastStatus) >= p.statusEvery() {
			lastStatus = time.Now()
			_ = s.peer.Cast(p.dest, wire.ReplStatus{
				SrcDC:       s.self.DC,
				Epoch:       s.replEpoch,
				NextSeq:     next,
				UpTo:        ub,
				UST:         s.ust.Load(),
				Sold:        s.sold.Load(),
				QueuedBytes: uint64(qb),
			})
			p.mu.Lock()
			p.statusSent++
			p.mu.Unlock()
			s.metrics.flowStatusSent.Add(1)
		}
	}
}

// step performs at most one send (fresh chunk or repair) and reports
// whether it did any work.
func (p *flowPump) step() bool {
	p.mu.Lock()
	serveRepair := p.repairPending &&
		(len(p.entries) == 0 || p.freshSinceAging >= repairAgingLimit)
	if serveRepair {
		from := p.repairFrom
		upTo := p.latestUB
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
		// Serve the repair as budget-bounded chunks, cast back-to-back with
		// no fresh-batch interleave: on the FIFO link they slot sequentially
		// into the stream (every chunk names the same resume position; the
		// receiver's cursor latch is idempotent) and no single frame exceeds
		// the replication chunk budget, so a degraded link is never hit with
		// one giant catch-up frame that would re-congest it.
		chunks := p.s.buildRepairChunks(p.s.store.VersionsIn(from, upTo), nextSeq, upTo)
		for _, resp := range chunks {
			size := wire.ApproxSize(resp)
			p.s.metrics.noteRepairChunk(size)
			if !p.pace(size) {
				return false
			}
			_ = p.s.peer.Cast(p.dest, resp)
		}
		p.s.metrics.replSyncServed.Add(1)
		return true
	}
	if len(p.entries) == 0 {
		p.mu.Unlock()
		return false
	}
	e := p.entries[0]
	p.entries = p.entries[1:]
	if p.repairPending {
		p.freshSinceAging++
	}
	if e.burn {
		// Skip one sequence number: the receiver sees the gap, freezes its
		// vv entry (UST-safe) and requests a store-backed repair with its
		// own watermark — the only party that knows what it truly has.
		p.seq++
	}
	p.seq++
	e.batch.Epoch = p.s.replEpoch
	e.batch.Seq = p.seq
	// Piggyback the freshest stable values at send time: the receiver adopts
	// them without waiting for the down-tree gossip, which an idle root may
	// then withhold.
	e.batch.UST = p.s.ust.Load()
	e.batch.Sold = p.s.sold.Load()
	p.mu.Unlock()

	if !p.pace(e.bytes) {
		return false
	}
	_ = p.s.peer.Cast(p.dest, e.batch)
	p.mu.Lock()
	p.queuedBytes -= e.bytes
	if p.queuedBytes < 0 {
		p.queuedBytes = 0
	}
	if p.degraded && p.queuedBytes <= p.low {
		p.degraded = false
		p.degradedExits++
		p.s.metrics.flowDegradedExits.Add(1)
	}
	p.mu.Unlock()
	return true
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

// SetFlowBudget reconfigures every destination's bandwidth budget at
// runtime (no-op when flow control is disabled). Operators use it to open
// the throttle after a constrained link heals so a degraded peer's backlog
// drains quickly.
func (s *Server) SetFlowBudget(rate, burst int) {
	if s.flow != nil {
		s.flow.setBudget(rate, burst)
	}
}

// FlowStats returns per-destination flow-control statistics (nil when flow
// control is disabled).
func (s *Server) FlowStats() []FlowDestStats {
	if s.flow == nil {
		return nil
	}
	return s.flow.stats()
}

// paceSlice bounds how long pace commits to one uninterruptible sleep, so a
// budget reconfigure takes effect within a slice even on a pump serving out
// a long delay.
const paceSlice = 100 * time.Millisecond

// pace charges the token bucket and sleeps out the budget delay. A SetRate
// while sleeping forgives the remaining delay — the reconfigure reset the
// bucket's balance, and the heal path relies on a raised budget unsticking
// pumps that computed multi-second delays against the old rate. Returns
// false if the server stopped while waiting.
func (p *flowPump) pace(bytes int) bool {
	d := p.bucket.Take(bytes)
	if d <= 0 {
		return true
	}
	p.mu.Lock()
	p.throttled += d
	p.mu.Unlock()
	p.s.metrics.flowThrottledNs.Add(uint64(d))
	gen := p.bucket.Gen()
	//lint:ignore paris/ctxdeadline pacing timer on the monotonic clock; a process-local sleep horizon, not a protocol deadline
	deadline := time.Now().Add(d)
	for {
		wait := time.Until(deadline)
		if wait <= 0 {
			return true
		}
		t := time.NewTimer(min(wait, paceSlice))
		select {
		case <-p.s.stopped:
			t.Stop()
			return false
		case <-t.C:
		}
		if p.bucket.Gen() != gen {
			return true
		}
	}
}
