// Package server implements the PaRiS partition server: Algorithms 2, 3 and 4
// of the paper. Each Server hosts one replica of one partition in one data
// center and plays three roles at once:
//
//   - transaction coordinator (Alg. 2): assigns snapshots, fans out parallel
//     reads, and drives the two-phase commit;
//   - transaction cohort (Alg. 3): serves snapshot reads and participates in
//     2PC for the keys it stores;
//   - replication and stabilization participant (Alg. 4): applies committed
//     transactions in timestamp order, replicates them to peer replicas,
//     and gossips version-vector minima so the Universal Stable Time (UST)
//     advances.
//
// The same code base also implements the paper's baseline, BPR (Blocking
// Partial Replication, §V): in ModeBlocking the snapshot comes from the
// coordinator's clock instead of the UST and cohort reads block until the
// partition has installed the snapshot.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/clock"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// Mode selects the read-visibility protocol.
type Mode uint8

const (
	// ModeNonBlocking is PaRiS: transactions read from the UST-stable
	// snapshot and never block.
	ModeNonBlocking Mode = iota + 1
	// ModeBlocking is the BPR baseline: fresher snapshots, blocking reads.
	ModeBlocking
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNonBlocking:
		return "paris"
	case ModeBlocking:
		return "bpr"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config parameterizes a Server.
type Config struct {
	// ID is the server's identity (DC + partition). Required.
	ID topology.NodeID
	// Topology describes the deployment. Required.
	Topology *topology.Topology
	// Mode selects PaRiS or the BPR baseline. Default ModeNonBlocking.
	Mode Mode
	// Selector chooses remote replicas for reads and prepares. Defaults to a
	// PreferredSelector seeded by the server's DC.
	Selector topology.Selector
	// Clock is the physical time source. Defaults to the system clock.
	Clock clock.Source
	// ApplyInterval is ΔR, the length of a round: every server applies,
	// replicates and advances its version clock at the wall-clock multiples of
	// ΔR, so the stabilization push each round ends with (stability.go) finds
	// its inputs arriving within hops. Use whole milliseconds: the hybrid
	// clock's physical part counts them.
	ApplyInterval time.Duration
	// BatchMaxItems caps the write items coalesced into one ReplicateBatch
	// chunk per destination per ΔR round. 0 selects the default (1024); a
	// negative value disables batching entirely and falls back to the legacy
	// per-commit-timestamp Replicate and Heartbeat messages (the bench
	// harness uses this for before/after comparisons).
	BatchMaxItems int
	// BatchMaxBytes caps the approximate encoded payload bytes per chunk.
	// 0 selects the default (1 MiB). A single group larger than either cap
	// still travels whole: caps split rounds, never transactions.
	BatchMaxBytes int
	// BandwidthBudget, when positive, enables per-destination replication
	// flow control (flowpump.go): outbound ReplicateBatch/ReplSyncResp
	// traffic toward each peer replica is paced to this many bytes/second
	// by a token bucket, the send queue is bounded by FlowHighWater, and a
	// destination whose queue crosses the bound degrades to
	// summary/heartbeat-only mode until it drains below FlowLowWater.
	// 0 disables flow control entirely (unbounded fire-and-forget sends).
	// Only effective on the batched pipeline (BatchMaxItems >= 0).
	BandwidthBudget int
	// BudgetBurst is the token bucket's burst capacity in bytes.
	// 0 selects BandwidthBudget/4, floored at 4 KiB.
	BudgetBurst int
	// FlowHighWater bounds the bytes queued (including in flight) toward
	// one destination; a round that would cross it is shed instead
	// (degraded mode). 0 selects the default (4 MiB). Keep it a few
	// multiples of BatchMaxBytes: a single chunk larger than the bound can
	// never be admitted.
	FlowHighWater int
	// FlowLowWater is the queue depth below which a degraded destination
	// resumes normal sends. 0 selects FlowHighWater/4.
	FlowLowWater int
	// PrepareBatchMax caps how many concurrent outbound 2PC prepares to one
	// destination cohort are coalesced into a single PrepareBatch wire
	// message (group commit for the prepare fan-out, amortizing per-message
	// framing the way the replication pipeline does for writes). 0 selects
	// the default (32); a negative value disables coalescing and sends every
	// prepare as its own PrepareReq.
	PrepareBatchMax int
	// ApplyWorkers is the number of store-apply worker goroutines a ΔR round
	// fans out to; the round's version-clock publication waits for all of
	// them (store-then-publish). 0 selects the default (GOMAXPROCS, capped
	// at 8); 1 or a negative value applies serially on the loop goroutine.
	ApplyWorkers int
	// GossipInterval is ΔG, the spacing of a server's pushes toward its tree
	// parent (at a root: toward the other DC roots). Pushes are driven by the
	// ΔR round, so this is rounded up to whole rounds — one push every
	// ⌈ΔG/ΔR⌉-th round — and anything at or below ΔR means every round.
	GossipInterval time.Duration
	// USTInterval is ΔU, the spacing of a root's UST computations and down
	// pushes, rounded up to whole rounds like GossipInterval.
	USTInterval time.Duration
	// GossipIdleMax spaces the pushes of a server that has seen no data
	// activity (its own, or an Active bit from a neighbour) for a while: it
	// lets one go per GossipIdleMax instead of one per round, and returns to
	// every round with the next write. 0 selects 32×GossipInterval; a value at
	// or below GossipInterval means the plane never goes quiet.
	GossipIdleMax time.Duration
	// GCInterval is the cadence of version-chain garbage collection;
	// 0 disables GC.
	GCInterval time.Duration
	// TxContextTTL bounds how long an abandoned transaction context survives
	// on its coordinator (§III-C: contexts of failed clients are cleaned in
	// the background after a timeout). The TTL is measured from the
	// context's last read/commit touch, not from transaction start, so long
	// sessions stay alive as long as they keep issuing operations.
	TxContextTTL time.Duration
	// CallTimeout bounds a coordinator's wait for a cohort or remote read
	// slice. Cohort requests never block in PaRiS mode; in BPR mode reads
	// wait for snapshot installation, which is bounded by replication
	// progress. The generous default (60s) exists so a crashed peer cannot
	// wedge a coordinator forever; fault-injection tests shrink it.
	CallTimeout time.Duration
	// PreparedTTL bounds how long a prepared transaction may sit in the
	// Prepared queue without a commit or abort decision before the reaper
	// aborts it locally (§III-C: state left by failed coordinators is cleaned
	// in the background). A prepared entry pins the partition's version-clock
	// upper bound, so an orphan freezes the UST system-wide; the reaper turns
	// that into a bounded stall. 0 selects the default (2×CallTimeout, so a
	// live coordinator's decision always wins the race); negative disables
	// reaping.
	PreparedTTL time.Duration
	// Store, when non-nil, is the multi-version store the server serves from
	// instead of a fresh one. The restart half of a crash/restart cycle hands
	// the crashed server's store to its replacement, modelling data that
	// survives a process crash while the volatile stabilization and
	// replication state does not.
	Store *store.MVStore
	// Recovered2PC, when non-nil, is the crashed predecessor's 2PC log
	// (ExportTwoPC) — the stand-in for the prepare/decision records a real
	// presumed-abort deployment replays from its write-ahead log on restart.
	// Recovered prepared entries keep the version clock pinned below their
	// prepare times and are resolved through the coordinator decision-query
	// flow as soon as the server starts (see recovery.go).
	Recovered2PC *TwoPCExport
	// RecoveryHold, when positive, freezes the apply/replicate plane for the
	// given duration after Start: committed transactions queue but are not
	// applied, the local version clock does not advance, and no replication or
	// heartbeat leaves the server. A restarted server uses the hold to keep
	// the UST frozen below any commit decision that may have been lost in its
	// crash window, giving coordinators' CommitRecover retries time to land
	// before any reader can take a snapshot above them.
	RecoveryHold time.Duration
	// VisibilitySample records every k-th applied version for update
	// visibility latency measurement (Fig. 4); 0 disables tracking.
	VisibilitySample int
	// ResolverFor selects a custom conflict resolver per key (§II-B allows
	// any commutative, associative merge). nil — or a nil return for a key —
	// selects plain last-writer-wins.
	ResolverFor func(key string) store.Resolver
}

// Defaults mirror the paper's 5 ms stabilization cadence.
const (
	defaultApplyInterval   = 5 * time.Millisecond
	defaultGossipInterval  = 5 * time.Millisecond
	defaultUSTInterval     = 5 * time.Millisecond
	defaultGossipIdleMult  = 32
	defaultTxContextTTL    = 30 * time.Second
	defaultCallTimeout     = 60 * time.Second
	defaultBatchMaxItems   = 1024
	defaultBatchMaxBytes   = 1 << 20
	defaultPrepareBatchMax = 32
	maxDefaultApplyWorkers = 8
	defaultFlowHighWater   = 4 << 20
	minDefaultBudgetBurst  = 4 << 10
)

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Topology == nil {
		return cfg, errors.New("server: config requires a topology")
	}
	if cfg.ID.Role != topology.RoleServer {
		return cfg, fmt.Errorf("server: id %v is not a server identity", cfg.ID)
	}
	if !cfg.Topology.IsReplicatedAt(cfg.ID.Partition(), cfg.ID.DC) {
		return cfg, fmt.Errorf("server: DC %d does not replicate partition %d",
			cfg.ID.DC, cfg.ID.Partition())
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeNonBlocking
	}
	if cfg.Selector == nil {
		cfg.Selector = topology.NewPreferredSelector(cfg.Topology, int32(cfg.ID.DC))
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	if cfg.ApplyInterval <= 0 {
		cfg.ApplyInterval = defaultApplyInterval
	}
	if cfg.BatchMaxItems == 0 {
		cfg.BatchMaxItems = defaultBatchMaxItems
	}
	if cfg.BatchMaxBytes == 0 {
		cfg.BatchMaxBytes = defaultBatchMaxBytes
	}
	if cfg.PrepareBatchMax == 0 {
		cfg.PrepareBatchMax = defaultPrepareBatchMax
	}
	if cfg.BandwidthBudget > 0 {
		if cfg.BudgetBurst <= 0 {
			cfg.BudgetBurst = max(cfg.BandwidthBudget/4, minDefaultBudgetBurst)
		}
		if cfg.FlowHighWater <= 0 {
			cfg.FlowHighWater = defaultFlowHighWater
		}
		if cfg.FlowLowWater <= 0 {
			cfg.FlowLowWater = cfg.FlowHighWater / 4
		}
	}
	if cfg.ApplyWorkers == 0 {
		cfg.ApplyWorkers = runtime.GOMAXPROCS(0)
		if cfg.ApplyWorkers > maxDefaultApplyWorkers {
			cfg.ApplyWorkers = maxDefaultApplyWorkers
		}
	}
	if cfg.ApplyWorkers < 1 {
		cfg.ApplyWorkers = 1
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = defaultGossipInterval
	}
	if cfg.USTInterval <= 0 {
		cfg.USTInterval = defaultUSTInterval
	}
	if cfg.GossipIdleMax == 0 {
		cfg.GossipIdleMax = defaultGossipIdleMult * cfg.GossipInterval
	}
	if cfg.GossipIdleMax < cfg.GossipInterval {
		cfg.GossipIdleMax = cfg.GossipInterval
	}
	if cfg.TxContextTTL <= 0 {
		cfg.TxContextTTL = defaultTxContextTTL
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	if cfg.PreparedTTL == 0 {
		cfg.PreparedTTL = 2 * cfg.CallTimeout
	}
	return cfg, nil
}

// abortedRetention is how long an aborted/reaped transaction id is remembered
// so a straggling CohortCommit or PrepareReq for it can be rejected. Long
// enough to outlive any in-flight decision for the transaction by a wide
// margin, yet bounded so the set cannot grow without limit.
func (c *Config) abortedRetention() time.Duration {
	if c.PreparedTTL > 0 {
		return 4 * c.PreparedTTL
	}
	return 4 * c.CallTimeout
}

// preparedTx is an entry of the pending (Prepared) queue.
type preparedTx struct {
	id     wire.TxID
	pt     hlc.Timestamp
	srcDC  topology.DCID
	writes []wire.KV
	// at is the local insertion time; the reaper aborts entries whose
	// coordinator has gone silent for longer than PreparedTTL.
	at time.Time
	// resolving marks an in-flight TxStatus query so sweeps do not pile up
	// duplicate resolution calls for the same entry.
	resolving bool
}

// committedTx is an entry of the Committed queue, waiting to be applied.
type committedTx struct {
	id     wire.TxID
	ct     hlc.Timestamp
	srcDC  topology.DCID
	writes []wire.KV
}

// decidedTx records a coordinator's commit decision for status queries.
type decidedTx struct {
	ct hlc.Timestamp
	at time.Time
	// acked lists the cohorts whose PrepareResp the decision was built on —
	// the only replicas allowed to apply the transaction. A failover cohort
	// that was superseded (its response was lost and an alternate took over)
	// must be told "aborted", or both replicas would apply and re-replicate
	// the same transaction.
	acked []topology.NodeID
}

// txContext is the coordinator-side state of a running transaction.
type txContext struct {
	snapshot hlc.Timestamp
	started  time.Time
	// lastActive is refreshed on every read/commit touch; the cleanup loop
	// measures the TTL from here, not from started, so a context is only
	// reaped after the session has actually gone quiet.
	lastActive time.Time
}

// Server is one partition replica. Construct with New, wire it to a network
// (Peer / Network.Register), then Start it.
//
// State is split by role so the client-operation hot path never contends
// with replication: ust/sold/vv are atomics (lock-free snapshot assignment
// and stabilization reads), txCtx lives in a sharded table (per-shard locks,
// keyed by TxID), and the 2PC decision state — prepared, committed, decided,
// aborted, committing — lives in a second TxID-sharded table (twoPCTable)
// whose per-shard locks keep prepares, cohort commits and the apply loop's
// upper-bound computation from serializing on one mutex.
type Server struct {
	cfg   Config
	self  topology.NodeID
	clock *hlc.Clock
	store *store.MVStore
	peer  *transport.Peer

	// ust is the server's universal stable time (ust m n); sold is the
	// garbage-collection watermark (oldest active snapshot). Both are
	// monotonic and published via atomics: handleStartTx snapshot assignment
	// and observeUST are lock-free.
	ust  atomicTS
	sold atomicTS
	// vv is the version vector V V(m,n), one slot per DC id (only the DCs
	// replicating this partition are live — vvLive marks them); vv[own DC] is
	// the local version clock (Alg. 4). Entries are atomics because every
	// slot has exactly one natural writer (the apply loop for the own-DC
	// entry, one FIFO replication link per remote DC) but many lock-free
	// readers (installed-bound computation, stabilization contribution).
	vv     []atomicTS
	vvLive []bool

	// txCtx is the coordinator-side transaction-context table, sharded by
	// TxID so StartTx/Read/Commit bookkeeping from independent sessions
	// never serializes on one lock.
	txCtx txTable
	txSeq atomic.Uint64

	// twoPC is the sharded 2PC decision table: prepared, committed, aborted
	// tombstones, decided and committing, co-located per TxID shard. Each
	// entry's documentation lives on twoPCShard. Before PR 6 all of it sat
	// under one Server.mu, which serialized the whole commit plane.
	twoPC twoPCTable

	// prepBatch coalesces concurrent outbound 2PC prepares per destination
	// cohort into PrepareBatch wire messages (group commit).
	prepBatch prepareBatcher

	// applyReady is the applyTick drain scratch, reused across rounds (the
	// loop is single-goroutine). applyItems is the corresponding flattened
	// write-item scratch handed to the store.
	applyReady []committedTx
	applyItems []wire.Item

	stab stabilizer

	waitMu  sync.Mutex
	waiters []installWaiter
	vis     *visibilityTracker

	// holdUntil, when non-zero, is the monotonic instant the post-restart
	// recovery hold expires; applyTick idles until then (see
	// Config.RecoveryHold). Written once in Start before any loop runs.
	holdUntil time.Time

	// Replication-stream repair (replsync.go). Sender side: replEpoch
	// identifies this server incarnation; replSeq is the per-destination
	// chunk sequence (applyTick goroutine only, no lock); syncReqs holds
	// repair requests awaiting the next apply round. Receiver side: replIn
	// is the per-source-DC stream cursor table; replSyncRetry paces
	// re-requests while a repair is outstanding.
	replEpoch     uint64
	replSeq       map[topology.NodeID]uint64
	syncMu        sync.Mutex
	syncReqs      map[topology.DCID]hlc.Timestamp
	replIn        []replInStream
	replSyncRetry time.Duration

	// flow is the replication flow-control layer (flowpump.go); nil when
	// Config.BandwidthBudget is 0 or the pipeline is unbatched.
	flow *flowControl

	// recovered2PC is set when Config.Recovered2PC seeded prepared entries;
	// Start then kicks an immediate reaper sweep so the recovered entries'
	// decision queries fire right away instead of waiting out a TTL.
	recovered2PC bool

	startOnce sync.Once
	stopOnce  sync.Once
	stopped   chan struct{}
	loopWG    sync.WaitGroup // background loops
	reqMu     sync.RWMutex   // spawn's stopped-check + Add vs Stop's close + Wait
	reqWG     sync.WaitGroup // in-flight request goroutines

	metrics Metrics
}

// New validates cfg and builds a Server. The returned server is inert until
// Start is called; its Peer must be registered with a transport first.
func New(cfg Config) (*Server, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	st := full.Store
	if st == nil {
		st = store.New()
	}
	s := &Server{
		cfg:     full,
		self:    full.ID,
		clock:   hlc.NewClock(full.Clock),
		store:   st,
		vv:      make([]atomicTS, full.Topology.NumDCs()),
		vvLive:  make([]bool, full.Topology.NumDCs()),
		stopped: make(chan struct{}),
	}
	s.txCtx.init()
	s.twoPC.init()
	s.prepBatch.init(s)
	//lint:ignore paris/ctxdeadline incarnation id: needs uniqueness across restarts, not clock accuracy; never ordered against HLC timestamps
	s.replEpoch = uint64(time.Now().UnixNano())
	s.replSeq = make(map[topology.NodeID]uint64)
	s.syncReqs = make(map[topology.DCID]hlc.Timestamp)
	s.replIn = make([]replInStream, full.Topology.NumDCs())
	s.replSyncRetry = max(4*full.ApplyInterval, 10*time.Millisecond)
	// Seed the transaction sequence with a ~µs-granularity wall-clock base so
	// TxIDs stay unique across coordinator incarnations: a restarted
	// coordinator that re-counted from zero would reissue its predecessor's
	// ids, colliding with surviving 2PC tombstones on cohorts (a fresh
	// transaction could inherit a stale abort) and with every TxID-keyed
	// record downstream. Catching up to a later incarnation's base would take
	// a sustained million transactions per second from one coordinator.
	//lint:ignore paris/ctxdeadline incarnation-unique TxID base (see comment above); uniqueness is what matters, not wall-clock accuracy
	s.txSeq.Store(uint64(time.Now().UnixNano() >> 10))
	for _, dc := range full.Topology.ReplicaDCs(full.ID.Partition()) {
		s.vvLive[dc] = true
	}
	s.stab.init(s)
	if full.VisibilitySample > 0 {
		s.vis = newVisibilityTracker(full.VisibilitySample)
	}
	if full.Recovered2PC != nil {
		s.importTwoPC(full.Recovered2PC)
	}
	if full.BandwidthBudget > 0 && full.BatchMaxItems >= 0 {
		s.flow = newFlowControl(s)
	}
	s.peer = transport.NewPeer(full.ID, s)
	return s, nil
}

// Peer returns the transport peer to register with a Network:
//
//	ep, _ := net.Register(srv.ID(), srv.Peer())
//	srv.Peer().Attach(ep)
func (s *Server) Peer() *transport.Peer { return s.peer }

// ID returns the server's node identity.
func (s *Server) ID() topology.NodeID { return s.self }

// Mode returns the visibility protocol the server runs.
func (s *Server) Mode() Mode { return s.cfg.Mode }

// Start launches the background protocol loops. It is idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		if s.cfg.RecoveryHold > 0 {
			//lint:ignore paris/ctxdeadline local startup gate on the monotonic clock; holds this process only and is never exchanged with peers
			s.holdUntil = time.Now().Add(s.cfg.RecoveryHold)
		}
		if s.flow != nil {
			s.flow.start()
		}
		s.runLoop(s.cfg.ApplyInterval, true, s.applyTick)
		if s.cfg.GCInterval > 0 {
			s.runLoop(s.cfg.GCInterval, false, unlabelled(s.gcTick))
		}
		s.runLoop(s.cfg.TxContextTTL/2, false, unlabelled(s.ctxCleanupTick))
		if s.cfg.PreparedTTL > 0 {
			s.runLoop(s.cfg.PreparedTTL/4, false, unlabelled(s.reapTick))
			if s.recovered2PC {
				// Resolve recovered prepares now — their coordinators may hold
				// commit decisions whose CohortCommit died with the crash.
				s.spawn(s.reapTick)
			}
		}
	})
}

// Stop terminates the background loops and waits for in-flight request
// handlers. It is idempotent and safe to call before Start.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		// The write lock excludes every in-flight spawn: each holds the read
		// lock across its stopped-check and WaitGroup.Add, so once the close
		// is published no further request goroutine can be added and the
		// Wait below cannot race an Add.
		s.reqMu.Lock()
		close(s.stopped)
		s.reqMu.Unlock()
		s.notifyInstalled(hlc.MaxTimestamp) // release blocked BPR readers
		s.prepBatch.shutdown()              // fail queued prepares deterministically
	})
	s.loopWG.Wait()
	s.reqWG.Wait()
	s.peer.Close()
}

// runLoop starts a background loop bound to the stop channel that ticks every
// interval — aligned, at the wall-clock multiples of it, handing the tick the
// index of the multiple it was armed for (unaligned: 0). applyTick, and through
// it the stabilization push that ends every round, is aligned so that rounds
// begin together and are labelled alike on every server whose clock agrees.
// That is a latency device only: a round computes its bounds from the injected
// hybrid clock exactly as an unaligned one would and labels are compared only
// with labels, so skewed or stepping wall clocks shift a server's phase (its
// pushes find their inputs a little later) and change nothing else — which is
// why this one timer reads the host clock rather than the injected millisecond
// source, which is too coarse to sleep against.
func (s *Server) runLoop(interval time.Duration, aligned bool, tick func(round int64)) {
	next := func() (time.Duration, int64) {
		if !aligned {
			return interval, 0
		}
		now := time.Now()
		at := now.Truncate(interval).Add(interval)
		return at.Sub(now), at.UnixNano() / int64(interval)
	}
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		wait, round := next()
		t := time.NewTimer(wait)
		defer t.Stop()
		for {
			select {
			case <-s.stopped:
				return
			case <-t.C:
				tick(round)
				wait, round = next()
				t.Reset(wait)
			}
		}
	}()
}

// unlabelled adapts a tick that takes no round label to runLoop.
func unlabelled(tick func()) func(int64) { return func(int64) { tick() } }

func (s *Server) isStopped() bool {
	select {
	case <-s.stopped:
		return true
	default:
		return false
	}
}

// HandleRequest implements transport.RequestHandler. Quick operations are
// served inline on the delivery goroutine; operations that fan out to other
// nodes (coordinator reads and commits) or may block (BPR cohort reads) are
// moved to their own goroutine so links never stall.
func (s *Server) HandleRequest(from topology.NodeID, req wire.Message, reply func(wire.Message)) {
	if s.isStopped() {
		reply(wire.ErrorResp{Code: wire.CodeShuttingDown, Msg: "server stopped"})
		return
	}
	refused := func() { // Stop won the race against this delivery's spawn
		reply(wire.ErrorResp{Code: wire.CodeShuttingDown, Msg: "server stopped"})
	}
	switch m := req.(type) {
	case wire.StartTxReq:
		reply(s.handleStartTx(m))
	case wire.ReadReq:
		if !s.spawn(func() { reply(s.handleRead(m)) }) {
			refused()
		}
	case wire.CommitReq:
		if !s.spawn(func() { reply(s.handleCommit(m)) }) {
			refused()
		}
	case wire.ReadSliceReq:
		if s.cfg.Mode == ModeBlocking {
			if !s.spawn(func() { reply(s.handleReadSliceBlocking(m)) }) {
				refused()
			}
		} else {
			reply(s.handleReadSlice(m))
		}
	case wire.PrepareReq:
		reply(s.handlePrepare(m))
	case wire.PrepareBatch:
		reply(s.handlePrepareBatch(m))
	case wire.TxStatusReq:
		reply(s.handleTxStatus(from, m))
	case wire.CommitRecover:
		reply(s.handleCommitRecover(m))
	default:
		reply(wire.ErrorResp{Code: wire.CodeUnknownTx,
			Msg: fmt.Sprintf("unexpected request %v", req.Kind())})
	}
}

// HandleCast implements transport.RequestHandler.
func (s *Server) HandleCast(from topology.NodeID, msg wire.Message) {
	if s.isStopped() {
		return
	}
	switch m := msg.(type) {
	case wire.CohortCommit:
		s.handleCohortCommit(m)
	case wire.AbortTx:
		s.handleAbortTx(m)
	case wire.Replicate:
		s.handleReplicate(m)
	case wire.ReplicateBatch:
		s.handleReplicateBatch(m)
	case wire.Heartbeat:
		s.handleHeartbeat(m)
	case wire.ReplSyncReq:
		s.handleReplSyncReq(m)
	case wire.ReplSyncResp:
		s.handleReplSyncResp(m)
	case wire.ReplStatus:
		s.handleReplStatus(m)
	case wire.FinishTx:
		s.handleFinishTx(m)
	case wire.GSTUp:
		s.stab.handleUp(from, m)
	case wire.GSTRoot:
		s.stab.handleRoot(from, m)
	case wire.USTDown:
		s.stab.handleDown(from, m)
	}
}

// spawn runs fn on a tracked request goroutine. When the server is stopping
// it reports false without running fn: the stopped-check and the
// WaitGroup.Add happen under the read lock, so they are atomic with respect
// to Stop's close-then-Wait and a late delivery can never add a goroutine
// Stop has stopped waiting for.
func (s *Server) spawn(fn func()) bool {
	s.reqMu.RLock()
	if s.isStopped() {
		s.reqMu.RUnlock()
		return false
	}
	s.reqWG.Add(1)
	s.reqMu.RUnlock()
	go func() {
		defer s.reqWG.Done()
		fn()
	}()
	return true
}

// gcTick trims version chains below the globally agreed oldest active
// snapshot, folding rather than dropping versions of keys governed by a
// chain-derived resolver (counters, sets).
func (s *Server) gcTick() {
	watermark := s.sold.Load()
	if watermark == 0 {
		return
	}
	var removed int
	if s.cfg.ResolverFor != nil {
		removed = s.store.GCResolve(watermark, s.cfg.ResolverFor)
	} else {
		removed = s.store.GC(watermark)
	}
	if removed > 0 {
		s.metrics.gcRemoved.Add(uint64(removed))
	}
}

// ctxCleanupTick drops transaction contexts abandoned by failed clients: the
// TTL is measured from the context's last read/commit activity, so a session
// that keeps operating is never reaped out from under an open transaction.
// The tick also prunes the aborted-transaction tombstones once they are old
// enough that no straggling decision for them can still be in flight.
func (s *Server) ctxCleanupTick() {
	now := time.Now()
	s.txCtx.expire(now.Add(-s.cfg.TxContextTTL))
	s.twoPC.pruneDecisions(now.Add(-s.cfg.abortedRetention()))
}

// reapTick resolves prepared transactions whose decision has been outstanding
// for longer than PreparedTTL (§III-C background cleanup). The sweep does not
// abort unilaterally: a prepared entry may belong to a commit whose
// CohortCommit cast was lost in transit, or to a coordinator still grinding
// through sequential prepare failovers, so the cohort first asks the
// transaction's coordinator (embedded in the TxID) for its fate:
//
//   - committed → the transaction moves to the committed queue at its real
//     commit timestamp — safe because the prepared entry kept the version
//     clock pinned below its prepare time throughout;
//   - pending   → the coordinator is still deciding; wait for the next sweep;
//   - aborted / unknown → reap: release the entry and tombstone the id;
//   - unreachable → keep waiting, but only up to 2×PreparedTTL — past that
//     hard deadline the entry is reaped regardless, so a crashed coordinator
//     stalls the UST for a bounded time, never forever.
//
// The hard deadline is a deliberate availability-over-atomicity tradeoff for
// the one unrecoverable case: state here is volatile, so if the coordinator
// decided commit, lost the cast to this cohort, and then stayed dead past
// the deadline, the decision exists nowhere reachable and this partition's
// slice of the transaction is dropped while other partitions keep theirs.
// The alternative — waiting forever — is the UST freeze this subsystem
// exists to fix. Every case with a reachable coordinator (or one that
// recovers within 2×PreparedTTL) resolves atomically through the query.
//
// Safety of the reap itself: the id is tombstoned in s.aborted in the same
// critical section that releases the entry's pin on the version clock, so a
// CohortCommit racing the reaper either wins (commit proceeds normally) or
// finds the tombstone and is rejected — the transaction is never applied
// after readers may have taken snapshots above its prepare time.
func (s *Server) reapTick() {
	now := time.Now()
	softCutoff := now.Add(-s.cfg.PreparedTTL)
	hardCutoff := now.Add(-2 * s.cfg.PreparedTTL)
	var (
		reaped    int
		recovered int
		resolve   []wire.TxID
	)
	for i := range s.twoPC.shards {
		sh := &s.twoPC.shards[i]
		if sh.nPrepared.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		for id, p := range sh.prepared {
			if p.at.After(softCutoff) {
				continue
			}
			coord := id.Coordinator()
			if coord == s.self {
				// The decision, if any, is local — and on this very shard,
				// since both tables key by the same id: no query needed.
				if d, ok := sh.decided[id]; ok {
					if nodeListed(d.acked, s.self) {
						s.promoteLocked(sh, p, d.ct)
						recovered++
					} else {
						// Superseded during failover; the commit lives on
						// another replica.
						s.reapLocked(sh, id, now)
						reaped++
					}
				} else if !s.decidingLocked(sh, id) {
					s.reapLocked(sh, id, now)
					reaped++
				}
				continue
			}
			if p.at.Before(hardCutoff) {
				s.reapLocked(sh, id, now)
				reaped++
				continue
			}
			if !p.resolving {
				p.resolving = true
				resolve = append(resolve, id)
			}
		}
		sh.mu.Unlock()
	}
	if reaped > 0 {
		s.metrics.txReaped.Add(uint64(reaped))
	}
	if recovered > 0 {
		s.metrics.commitsRecovered.Add(uint64(recovered))
	}
	for _, id := range resolve {
		id := id
		s.spawn(func() { s.resolveOrphan(id) })
	}
}

// reapLocked releases a prepared entry and tombstones its id. Caller holds
// sh.mu, where sh is id's twoPC shard.
func (s *Server) reapLocked(sh *twoPCShard, id wire.TxID, now time.Time) {
	sh.removePreparedLocked(id)
	sh.aborted[id] = now
}

// decidingLocked reports whether this coordinator is still working toward a
// decision for id. Caller holds sh.mu, id's twoPC shard (txCtx shard locks
// are leaves below twoPC shard locks, so the context probe is safe here).
func (s *Server) decidingLocked(sh *twoPCShard, id wire.TxID) bool {
	if _, ok := sh.committing[id]; ok {
		return true
	}
	return s.txCtx.contains(id)
}

// nodeListed reports whether node appears in list.
func nodeListed(list []topology.NodeID, node topology.NodeID) bool {
	for _, n := range list {
		if n == node {
			return true
		}
	}
	return false
}

// promoteLocked moves a prepared entry to the committed queue at ct — the
// recovery path for a commit whose notification was lost. Caller holds sh.mu,
// the entry's twoPC shard.
func (s *Server) promoteLocked(sh *twoPCShard, p *preparedTx, ct hlc.Timestamp) {
	sh.removePreparedLocked(p.id)
	s.clock.Observe(ct)
	sh.pushCommittedLocked(committedTx{
		id:     p.id,
		ct:     ct,
		srcDC:  p.srcDC,
		writes: p.writes,
	})
	// Mark the recovery so a racing CommitRecover retry for the same id is
	// acknowledged instead of installing the transaction a second time.
	sh.done[p.id] = time.Now()
}

// resolveOrphan asks a remote coordinator for an expired prepared
// transaction's fate and acts on the answer.
func (s *Server) resolveOrphan(id wire.TxID) {
	cctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	watch := make(chan struct{})
	go func() { // release the call promptly if the server stops mid-query
		select {
		case <-s.stopped:
			cancel()
		case <-watch:
		}
	}()
	resp, err := s.peer.Call(cctx, id.Coordinator(), wire.TxStatusReq{TxID: id})
	close(watch)
	cancel()

	sh := s.twoPC.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, present := sh.prepared[id]
	if !present {
		return // resolved meanwhile (commit, abort, or hard-deadline reap)
	}
	p.resolving = false
	st, ok := resp.(wire.TxStatusResp)
	if err != nil || !ok {
		return // coordinator unreachable; the hard deadline bounds the wait
	}
	switch st.Status {
	case wire.TxStatusCommitted:
		s.promoteLocked(sh, p, st.CommitTS)
		s.metrics.commitsRecovered.Add(1)
	case wire.TxStatusPending:
		// Decision still in flight (e.g. slow prepare failover on another
		// partition); check again next sweep.
	default: // aborted or unknown
		s.reapLocked(sh, id, time.Now())
		s.metrics.txReaped.Add(1)
	}
}

// Compile-time interface compliance.
var _ transport.RequestHandler = (*Server)(nil)
