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
	"errors"
	"fmt"
	"math"
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

// Config parameterizes a Server. ApplyInterval (ΔR) is the one cadence of
// the background plane: the server applies, replicates, pushes up its
// stabilization tree and, at a root, recomputes the UST once per round; the
// periodic sweeps run every k-th round, k rounded up from their intervals.
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
	// BatchMaxBytes caps the approximate encoded payload bytes of one
	// replication chunk (ReplicateBatch or ReplSyncResp). 0 or negative
	// selects the default (1 MiB). A single commit-timestamp group larger
	// than the cap still travels whole: the cap splits rounds, never
	// transactions. It also sizes each destination's send queue
	// (flowpump.go): the queue holds at most 4 × BatchMaxBytes (but always
	// room for one heartbeat), and a destination that degraded at that
	// bound resumes once it has drained to BatchMaxBytes.
	BatchMaxBytes int
	// BandwidthBudget paces the replication traffic toward each peer replica
	// to this many bytes/second (flowpump.go): every ΔR round adds
	// budget × ΔR of credit, up to a burst of max(budget/4, 4 KiB), and a
	// chunk leaves when the credit covers it. 0 or negative means unlimited:
	// every round's chunks leave inside the round. Server.SetFlowBudget
	// changes it at runtime.
	BandwidthBudget int
	// GossipInterval must be 0 or ApplyInterval; New rejects any other value.
	//
	// Deprecated: ΔG is ΔR. A server pushes toward its tree parent (at a
	// root: toward the other DC roots) on every round, and once per 32 rounds
	// while idle (stability.go). The field stays for the frozen composite
	// literals in benchmark/cluster.go and benchmark/probes.go, which pass ΔR.
	GossipInterval time.Duration
	// USTInterval must be 0 or ApplyInterval; New rejects any other value.
	//
	// Deprecated: ΔU is ΔR. A root recomputes the UST on every round. The
	// field stays for the same frozen callers as GossipInterval.
	USTInterval time.Duration
	// GCInterval is the cadence of version-chain garbage collection, a step
	// of the ΔR round rounded up to whole rounds: one sweep every
	// ⌈GCInterval/ΔR⌉-th round. 0 disables GC.
	GCInterval time.Duration
	// TxContextTTL bounds how long an abandoned transaction context survives
	// on its coordinator (§III-C: contexts of failed clients are cleaned in
	// the background after a timeout). The TTL is measured from the
	// context's last read/commit touch, not from transaction start, so long
	// sessions stay alive as long as they keep issuing operations. It is
	// rounded up to whole rounds, and the cleanup sweeps every
	// ⌈TxContextTTL/2/ΔR⌉-th round.
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
	// that into a bounded stall. It is rounded up to whole rounds, and the
	// reaper sweeps every ⌈PreparedTTL/4/ΔR⌉-th round. 0 selects the default
	// (2×CallTimeout, so a live coordinator's decision always wins the race);
	// New rejects a negative value.
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
	// flow from the server's first round (see recovery.go).
	Recovered2PC *TwoPCExport
	// RecoveryHold, when positive, freezes the apply/replicate plane for
	// ⌈RecoveryHold/ΔR⌉ rounds from the server's first round: committed
	// transactions queue but are not applied, the local version clock does not
	// advance, and no replication or heartbeat leaves the server (the round's
	// sweeps still run). A restarted server uses the hold to keep
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
	defaultApplyInterval = 5 * time.Millisecond
	defaultTxContextTTL  = 30 * time.Second
	defaultCallTimeout   = 60 * time.Second
	defaultBatchMaxBytes = 1 << 20
	applyWorkerCap       = 8
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
	if cfg.BatchMaxBytes <= 0 {
		cfg.BatchMaxBytes = defaultBatchMaxBytes
	}
	if d := cfg.GossipInterval; d != 0 && d != cfg.ApplyInterval {
		return cfg, fmt.Errorf("server: GossipInterval %v must be 0 or ApplyInterval (%v)", d, cfg.ApplyInterval)
	}
	if d := cfg.USTInterval; d != 0 && d != cfg.ApplyInterval {
		return cfg, fmt.Errorf("server: USTInterval %v must be 0 or ApplyInterval (%v)", d, cfg.ApplyInterval)
	}
	if cfg.TxContextTTL <= 0 {
		cfg.TxContextTTL = defaultTxContextTTL
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultCallTimeout
	}
	if cfg.PreparedTTL < 0 {
		return cfg, fmt.Errorf("server: negative PreparedTTL %v", cfg.PreparedTTL)
	}
	if cfg.PreparedTTL == 0 {
		cfg.PreparedTTL = 2 * cfg.CallTimeout
	}
	return cfg, nil
}

// rounds converts d to whole ΔR rounds: ⌈d/ΔR⌉, at least one. It cannot
// overflow, so a duration meant as "never" stays the longest.
func (c *Config) rounds(d time.Duration) int64 {
	n := int64(d / c.ApplyInterval)
	if d%c.ApplyInterval > 0 {
		n++
	}
	return max(1, n)
}

// abortedRetention is how long an aborted/reaped transaction id is remembered
// so a straggling CohortCommit or PrepareReq for it can be rejected. Long
// enough to outlive any in-flight decision for the transaction by a wide
// margin, yet bounded so the set cannot grow without limit.
func (c *Config) abortedRetention() time.Duration { return 4 * c.PreparedTTL }

// preparedTx is an entry of the pending (Prepared) queue.
type preparedTx struct {
	id     wire.TxID
	pt     hlc.Timestamp
	srcDC  topology.DCID
	writes []wire.KV
	// at is the round label of the insertion; the reaper resolves entries
	// whose coordinator has gone silent for longer than PreparedTTL.
	at int64
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
	at int64 // round label of the decision
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
	// lastActive is the round label of the start or the last read/commit
	// touch; the cleanup sweep measures the TTL from here, so a context is
	// only reaped after the session has actually gone quiet.
	lastActive int64
}

// Server is one partition replica. Construct with New, wire it to a network
// (Peer / Network.Register), then Start it.
//
// State is split by role so the client-operation hot path never contends
// with replication: ust/sold/vv are atomics (lock-free snapshot assignment
// and stabilization reads), txCtx is the coordinator's context table, and
// the 2PC decision state — prepared, committed, decided, aborted,
// committing — is a second table (twoPCTable). Each table is one map set
// under one mutex; the apply round's bound and drain are one critical
// section of the 2PC table's.
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

	// txCtx is the coordinator-side transaction-context table.
	txCtx txTable
	txSeq atomic.Uint64

	// twoPC is the 2PC decision table: prepared, committed, aborted
	// tombstones, decided and committing. Each entry's documentation lives
	// on twoPCTable.
	twoPC twoPCTable

	// inq holds the questions the server asks peers until they answer
	// (inquiry.go); the round steps it.
	inq inquiries

	// applyWorkers is how many store-apply goroutines a round's writes fan
	// out to (min(GOMAXPROCS, 8)); the round's version-clock publication
	// waits for all of them (store-then-publish).
	applyWorkers int

	// The apply round's scratch, reused across rounds and touched by the
	// round alone: applyReady is the drain, applyItems the flattened
	// write-items handed to the store, applyChunks and applySizes the
	// replication chunks (and their sizes) the pumps copy from.
	applyReady  []committedTx
	applyItems  []wire.Item
	applyChunks []wire.ReplicateBatch
	applySizes  []int

	stab stabilizer

	waitMu  sync.Mutex
	waiters []installWaiter
	vis     *visibilityTracker

	// labelNow is the steady label of the last round (label, runLoop). first
	// is the label of the server's first round (0 until it runs), which the
	// hold and the sweeps count from; only the round touches it. gcRunning is
	// set while a GC sweep the round started still runs.
	labelNow  atomic.Int64
	first     int64
	gcRunning atomic.Bool

	// Replication-stream repair (replsync.go). Sender side: replEpoch
	// identifies this server incarnation. Receiver side: replIn is the
	// per-source-DC stream cursor table; replSyncRetry paces re-requests
	// while a repair is outstanding, in rounds.
	replEpoch     uint64
	replIn        []replInStream
	replSyncRetry int64

	// pumps are the replication senders, one per peer replica
	// (flowpump.go); fixed at New.
	pumps []*flowPump

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
	s.inq.init(s)
	//lint:ignore paris/ctxdeadline incarnation id: needs uniqueness across restarts, not clock accuracy; never ordered against HLC timestamps
	s.replEpoch = uint64(time.Now().UnixNano())
	s.replIn = make([]replInStream, full.Topology.NumDCs())
	s.replSyncRetry = full.rounds(max(4*full.ApplyInterval, 10*time.Millisecond))
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
	s.applyWorkers = min(runtime.GOMAXPROCS(0), applyWorkerCap)
	for _, peer := range full.Topology.PeerReplicas(full.ID.Partition(), full.ID.DC) {
		s.pumps = append(s.pumps, newFlowPump(s, peer))
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

// Start arms the server's one timer, the ΔR round (runLoop). It is
// idempotent.
func (s *Server) Start() { s.startOnce.Do(s.runLoop) }

// Stop terminates the background loops, fails the server's pending calls and
// waits for in-flight request handlers. It is idempotent and safe to call
// before Start.
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
	})
	s.loopWG.Wait()
	// Fail the pending calls before waiting for the request goroutines: a
	// coordinator waiting on an unreachable cohort would otherwise hold Stop
	// for its CallTimeout, and again for each failover. Casts stay open until
	// the handlers are done, so a commit that aborts on a failed prepare
	// still releases its cohorts, and one that decided still delivers its
	// CohortCommits.
	s.peer.FailCalls()
	s.reqWG.Wait()
	s.peer.Close()
}

// runLoop starts the round: a loop bound to the stop channel that runs
// applyTick at the wall-clock multiples of ΔR, handing it the index of the
// multiple it was armed for and the same instant's label on the server's
// steady clock. Rounds are aligned so that they begin together and are
// labelled alike on every server whose clock agrees. That is a latency device
// only: a round computes its bounds from the injected hybrid clock exactly as
// an unaligned one would and labels are compared only with labels, so skewed
// or stepping wall clocks shift a server's phase (its pushes find their inputs
// a little later) and change nothing else — which is why this one timer reads
// the host clock rather than the injected millisecond source, which is too
// coarse to sleep against. The steady clock, which ages the server's own
// bookkeeping (label), is the first round's label advanced by the monotonic
// time since: a wall-clock step (NTP, a VM migration) can neither age a
// prepare past its hard cutoff unqueried nor stall repair pacing. runLoop
// publishes the current steady label before the loop runs, so nothing stamped
// between Start and the first round reads 0 — an age of the whole epoch.
func (s *Server) runLoop() {
	dR := s.cfg.ApplyInterval
	var (
		start time.Time // the first boundary, with its monotonic reading
		first int64     // and its label
	)
	next := func() (wait time.Duration, round, label int64) {
		now := time.Now()
		at := now.Truncate(dR).Add(dR)
		wait, round = at.Sub(now), at.UnixNano()/int64(dR)
		if start.IsZero() {
			start, first = now.Add(wait), round
		}
		// now.Sub(start) reads the monotonic clock. Rounded to the nearest
		// label, so that without a step the two labels agree exactly.
		return wait, round, first + int64(now.Sub(start)+wait+dR/2)/int64(dR)
	}
	wait, round, label := next()
	s.labelNow.Store(label - 1)
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		t := time.NewTimer(wait)
		defer t.Stop()
		for {
			select {
			case <-s.stopped:
				return
			case <-t.C:
				s.applyTick(round, label)
				wait, round, label = next()
				t.Reset(wait)
			}
		}
	}()
}

// label is the steady label of the server's last round (before the first:
// the one runLoop published), the only clock its 2PC, context and repair
// bookkeeping reads. Labels are compared only with labels, never with HLC
// timestamps.
func (s *Server) label() int64 { return s.labelNow.Load() }

// sweepTick runs the round's periodic steps, each on every k-th round counted
// from the server's first (see the Config fields for each k), and then the
// 2PC table's expiry and the inquiry table's step, which run every round.
// applyTick calls it last, so a sweep never delays the round's casts and
// push. GC, the one step that walks the whole store, only starts there, on a
// goroutine of its own, and not while the previous one still runs, so a
// large store does not delay the rounds that follow; and its rounds are
// offset by the partition index, so servers started together do not all walk
// their stores at once, right behind a push, and slow the stabilization hops
// that follow it.
func (s *Server) sweepTick(now int64) {
	due := func(every time.Duration, offset int64) bool {
		return (now-s.first+offset)%s.cfg.rounds(every) == 0
	}
	if s.cfg.GCInterval > 0 && due(s.cfg.GCInterval, int64(s.self.Partition())) && s.gcRunning.CompareAndSwap(false, true) {
		s.spawn(func() { defer s.gcRunning.Store(false); s.gcTick() })
	}
	if due(s.cfg.TxContextTTL/2, 0) {
		s.ctxCleanupTick()
	}
	if due(s.cfg.PreparedTTL/4, 0) {
		s.reapTick()
	}
	s.twoPC.pruneDecisions(now - s.cfg.rounds(s.cfg.abortedRetention()))
	s.inq.step(now)
}

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
	case wire.ReplicateBatch:
		s.handleReplicateBatch(m)
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
		s.stab.handleDown(from, msg)
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
// (The 2PC table's tombstones and decision records expire every round, in
// sweepTick, once no straggling decision for them can still be in flight.)
func (s *Server) ctxCleanupTick() {
	s.txCtx.expire(s.label() - s.cfg.rounds(s.cfg.TxContextTTL))
}

// reapTick resolves prepared transactions whose decision has been outstanding
// for longer than PreparedTTL (§III-C background cleanup): more than
// ⌈PreparedTTL/ΔR⌉ labels, at least PreparedTTL. The sweep does not abort
// unilaterally: a prepared entry may belong to a commit whose
// CohortCommit cast was lost in transit, or to a coordinator still grinding
// through sequential prepare failovers, so the cohort first asks the
// transaction's coordinator (embedded in the TxID) for its fate — an
// inquiry (askFate) that the round repeats once per sweep until answered:
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
	now, ttl, every := s.label(), s.cfg.rounds(s.cfg.PreparedTTL), s.cfg.rounds(s.cfg.PreparedTTL/4)
	softCutoff, hardCutoff := now-ttl, now-2*ttl
	// No entry counts as older than one PreparedTTL at the server's first
	// round — not one recovered from a crash, nor one stamped before any label
	// was published — so that round's sweep asks its coordinator for its fate
	// instead of hard-reaping it.
	floor := int64(math.MinInt64)
	if s.first != 0 {
		floor = s.first - ttl - 1
	}
	var reaped, recovered int
	t := &s.twoPC
	t.mu.Lock()
	for id, p := range t.prepared {
		at := max(p.at, floor)
		if at >= softCutoff {
			continue
		}
		coord := id.Coordinator()
		if coord == s.self {
			// The decision, if any, is local: no query needed.
			if d, ok := t.decided[id]; ok {
				if nodeListed(d.acked, s.self) {
					s.promoteLocked(p, d.ct)
					recovered++
				} else {
					// Superseded during failover; the commit lives on
					// another replica.
					s.reapLocked(id, now)
					reaped++
				}
			} else if !s.decidingLocked(id) {
				s.reapLocked(id, now)
				reaped++
			}
			continue
		}
		if at < hardCutoff {
			s.reapLocked(id, now)
			reaped++
			continue
		}
		s.inq.askFate(id, now, every)
	}
	t.mu.Unlock()
	if reaped > 0 {
		s.metrics.txReaped.Add(uint64(reaped))
	}
	if recovered > 0 {
		s.metrics.commitsRecovered.Add(uint64(recovered))
	}
}

// reapLocked releases a prepared entry and tombstones its id. Caller holds
// the 2PC table's lock.
func (s *Server) reapLocked(id wire.TxID, now int64) {
	delete(s.twoPC.prepared, id)
	s.twoPC.abortLocked(id, now)
}

// decidingLocked reports whether this coordinator is still working toward a
// decision for id. Caller holds the 2PC table's lock (the context table's
// lock is a leaf below it, so the context probe is safe here).
func (s *Server) decidingLocked(id wire.TxID) bool {
	if _, ok := s.twoPC.committing[id]; ok {
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
// recovery path for a commit whose notification was lost. Caller holds the
// 2PC table's lock.
func (s *Server) promoteLocked(p *preparedTx, ct hlc.Timestamp) {
	s.clock.Observe(ct)
	s.twoPC.commitPreparedLocked(p.id, ct)
	// Mark the recovery so a racing CommitRecover retry for the same id is
	// acknowledged instead of installing the transaction a second time.
	s.twoPC.doneLocked(p.id, s.label())
}

// Compile-time interface compliance.
var _ transport.RequestHandler = (*Server)(nil)
