package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metrics counts server-side protocol events. All fields are monotonically
// increasing; Snapshot returns a consistent copy.
type Metrics struct {
	txStarted        atomic.Uint64
	txCommitted      atomic.Uint64
	txApplied        atomic.Uint64
	readsServed      atomic.Uint64
	slicesServed     atomic.Uint64
	prepares         atomic.Uint64
	replGroups       atomic.Uint64
	replBatches      atomic.Uint64
	replItems        atomic.Uint64
	gcRemoved        atomic.Uint64
	txAborted        atomic.Uint64
	txReaped         atomic.Uint64
	commitsRecovered atomic.Uint64
	cohortAborts     atomic.Uint64
	commitsRejected  atomic.Uint64
	readFailovers    atomic.Uint64
	prepareFailovers atomic.Uint64
	prepBatches      atomic.Uint64
	prepBatched      atomic.Uint64
	confirmStarted   atomic.Uint64
	confirmDelivered atomic.Uint64
	replSyncReq      atomic.Uint64
	replSyncServed   atomic.Uint64
	replSyncApplied  atomic.Uint64

	// Replication flow control (flowpump.go), aggregated over destinations.
	flowThrottledNs     atomic.Uint64
	flowCoalesced       atomic.Uint64
	flowShedRounds      atomic.Uint64
	flowDegradedEntries atomic.Uint64
	flowDegradedExits   atomic.Uint64
	flowStatusSent      atomic.Uint64
	replStatusRecv      atomic.Uint64

	// Stabilization plane (stability.go).
	gossipSent       atomic.Uint64
	gossipSuppressed atomic.Uint64

	// Chunked repair serving (replsync.go / flowpump.go).
	repairChunks   atomic.Uint64
	repairChunkMax atomic.Uint64 // bytes; high-water mark, not monotone-add

	// Prepare-pump handoff (prepbatch.go).
	prepPumpWakeups atomic.Uint64

	blockMu    sync.Mutex
	blockCount uint64
	blockFree  uint64
	blockTotal time.Duration
}

// observeBlocking tallies whether a BPR read had to wait and for how long.
func (m *Metrics) observeBlocking(waited time.Duration) {
	m.blockMu.Lock()
	if waited > 0 {
		m.blockCount++
		m.blockTotal += waited
	} else {
		m.blockFree++
	}
	m.blockMu.Unlock()
}

// noteRepairChunk tallies one served ReplSyncResp chunk and keeps the
// high-water mark of single-chunk size — the observable the chunk-budget
// bound is asserted against.
func (m *Metrics) noteRepairChunk(size int) {
	m.repairChunks.Add(1)
	for {
		cur := m.repairChunkMax.Load()
		if uint64(size) <= cur || m.repairChunkMax.CompareAndSwap(cur, uint64(size)) {
			return
		}
	}
}

// MetricsSnapshot is a point-in-time copy of a server's counters.
type MetricsSnapshot struct {
	TxStarted      uint64        // transactions started (coordinator role)
	TxCommitted    uint64        // update transactions committed (coordinator role)
	TxApplied      uint64        // transactions applied to the local store
	ReadsServed    uint64        // keys served through coordinator reads
	SlicesServed   uint64        // read-slice requests served (cohort role)
	Prepares       uint64        // 2PC prepares processed (cohort role)
	ReplGroups     uint64        // replication groups received
	ReplBatches    uint64        // ReplicateBatch messages received
	ReplItems      uint64        // write items received via batches
	GCRemoved      uint64        // versions removed by garbage collection
	ReadsBlocked   uint64        // BPR slice reads that had to wait
	ReadsUnblocked uint64        // BPR slice reads served without waiting
	BlockedTotal   time.Duration // cumulative BPR read blocking time

	TxAborted        uint64 // 2PCs aborted by this coordinator (prepare failure)
	TxReaped         uint64 // prepared transactions reaped after PreparedTTL
	CommitsRecovered uint64 // lost CohortCommits recovered via status query
	CohortAborts     uint64 // prepared transactions released by AbortTx (cohort role)
	CommitsRejected  uint64 // CohortCommits refused for aborted/reaped transactions
	ReadFailovers    uint64 // slice reads retried on an alternate replica
	PrepareFailovers uint64 // prepares that succeeded on an alternate replica

	PrepareBatches     uint64 // coalesced PrepareBatch messages sent (coordinator role)
	PrepareBatchedReqs uint64 // prepares that travelled inside those batches

	CommitConfirms  uint64 // CommitRecover retry loops started after a failed commit cast
	CommitConfirmed uint64 // retry loops that reached a definitive cohort answer

	ReplSyncRequested uint64 // repair requests cast after replication-stream loss
	ReplSyncServed    uint64 // store-backed repair responses served (sender role)
	ReplSyncApplied   uint64 // repair responses installed (receiver role)

	FlowThrottledFor    time.Duration // cumulative token-bucket pacing delay (all destinations)
	FlowCoalesced       uint64        // ΔR rounds merged into an already-queued entry
	FlowShedRounds      uint64        // ΔR rounds shed in degraded mode
	FlowDegradedEntries uint64        // destinations crossing the high-water mark
	FlowDegradedExits   uint64        // destinations resuming below the low-water mark
	FlowStatusSent      uint64        // ReplStatus summaries cast (sender role)
	ReplStatusReceived  uint64        // ReplStatus summaries received

	GossipSent       uint64 // dedicated stabilization messages cast (GSTUp/GSTRoot/USTDown)
	GossipSuppressed uint64 // stabilization pushes withheld by the idle rule (no activity within the window)

	RepairChunksServed  uint64 // ReplSyncResp chunks cast (sender role)
	RepairChunkMaxBytes uint64 // largest single ReplSyncResp chunk (approx encoded size)

	PrepPumpWakeups uint64 // prepare-pump goroutine wakeups (drain-all handoff)
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() MetricsSnapshot {
	s.metrics.blockMu.Lock()
	blocked, free, total := s.metrics.blockCount, s.metrics.blockFree, s.metrics.blockTotal
	s.metrics.blockMu.Unlock()
	return MetricsSnapshot{
		TxStarted:      s.metrics.txStarted.Load(),
		TxCommitted:    s.metrics.txCommitted.Load(),
		TxApplied:      s.metrics.txApplied.Load(),
		ReadsServed:    s.metrics.readsServed.Load(),
		SlicesServed:   s.metrics.slicesServed.Load(),
		Prepares:       s.metrics.prepares.Load(),
		ReplGroups:     s.metrics.replGroups.Load(),
		ReplBatches:    s.metrics.replBatches.Load(),
		ReplItems:      s.metrics.replItems.Load(),
		GCRemoved:      s.metrics.gcRemoved.Load(),
		ReadsBlocked:   blocked,
		ReadsUnblocked: free,
		BlockedTotal:   total,

		TxAborted:        s.metrics.txAborted.Load(),
		TxReaped:         s.metrics.txReaped.Load(),
		CommitsRecovered: s.metrics.commitsRecovered.Load(),
		CohortAborts:     s.metrics.cohortAborts.Load(),
		CommitsRejected:  s.metrics.commitsRejected.Load(),
		ReadFailovers:    s.metrics.readFailovers.Load(),
		PrepareFailovers: s.metrics.prepareFailovers.Load(),

		PrepareBatches:     s.metrics.prepBatches.Load(),
		PrepareBatchedReqs: s.metrics.prepBatched.Load(),

		CommitConfirms:  s.metrics.confirmStarted.Load(),
		CommitConfirmed: s.metrics.confirmDelivered.Load(),

		ReplSyncRequested: s.metrics.replSyncReq.Load(),
		ReplSyncServed:    s.metrics.replSyncServed.Load(),
		ReplSyncApplied:   s.metrics.replSyncApplied.Load(),

		FlowThrottledFor:    time.Duration(s.metrics.flowThrottledNs.Load()),
		FlowCoalesced:       s.metrics.flowCoalesced.Load(),
		FlowShedRounds:      s.metrics.flowShedRounds.Load(),
		FlowDegradedEntries: s.metrics.flowDegradedEntries.Load(),
		FlowDegradedExits:   s.metrics.flowDegradedExits.Load(),
		FlowStatusSent:      s.metrics.flowStatusSent.Load(),
		ReplStatusReceived:  s.metrics.replStatusRecv.Load(),

		GossipSent:       s.metrics.gossipSent.Load(),
		GossipSuppressed: s.metrics.gossipSuppressed.Load(),

		RepairChunksServed:  s.metrics.repairChunks.Load(),
		RepairChunkMaxBytes: s.metrics.repairChunkMax.Load(),

		PrepPumpWakeups: s.metrics.prepPumpWakeups.Load(),
	}
}
