// Package nemesis is a seeded, Jepsen-style fault scheduler for embedded
// PaRiS clusters. A scenario composes the network's fault primitives —
// DC partitions, directed link faults, whole-node blackholes, process
// crash/restart, and clock-skew re-draws — into timed episodes with heal
// phases, while a production-shaped workload keeps running and every
// committed transaction is recorded into a live TCC history that
// internal/check validates continuously.
//
// A run has three phases: a fault phase (the scenario's script injects and
// heals faults on a seeded schedule), a heal phase (everything force-healed,
// crashed nodes restarted, workload still running so recovery becomes part
// of the checked history), and a drain (a probe write must become
// universally stable, proving the UST plane survived). The run fails if the
// checker finds any violation, or if the cluster cannot drain.
//
// Every scenario that survives is pinned as a named regression
// (TestNemesis_<scenario>); reproduce a run with
// `paris-bench -experiment nemesis -seed N`.
package nemesis

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/workload"
)

// Options parameterizes one nemesis run.
type Options struct {
	// Scenario is the name of the scenario to run (see Scenarios).
	Scenario string
	// Seed drives every random choice — fault schedule, workload, and
	// migration targets. The same seed replays the same schedule.
	Seed int64
	// Mode selects PaRiS or the BPR baseline. Default ModeNonBlocking.
	Mode paris.Mode
	// FaultPhase is how long the scenario's script injects faults
	// (default 1.2s); the heal phase runs half as long again with the
	// workload still going.
	FaultPhase time.Duration
	// WorkersPerDC is the number of concurrent recorded sessions per DC
	// (default 2).
	WorkersPerDC int
	// Logf, when set, receives scenario events as they happen (episodes,
	// crashes, check passes). Events are also collected into the Result.
	Logf func(format string, args ...any)
}

// Result is the outcome of one nemesis run.
type Result struct {
	Scenario   string
	Seed       int64
	Mode       paris.Mode
	Elapsed    time.Duration
	Committed  uint64 // transactions committed and recorded
	Failed     uint64 // transactions that errored mid-fault (expected)
	Migrations uint64 // cross-DC session migrations performed
	Checks     int    // live checker passes executed
	Drained    bool   // probe write became universally stable after healing
	Violations []check.Violation
	Events     []string // timed fault-schedule log

	// Flow-control aggregates over every server's replication destinations
	// (zero unless the scenario sets Config.BandwidthBudget). The max is the
	// largest per-destination send queue observed anywhere for the whole run
	// — the sender-side memory bound; the counters are cluster-wide sums.
	FlowMaxQueuedBytes  int
	FlowDegradedEntries uint64
	FlowDegradedExits   uint64
	FlowShedRounds      uint64
	FlowCoalesced       uint64
	FlowThrottledFor    time.Duration

	// Stabilization-plane aggregates, cluster-wide sums (maxima where noted)
	// over the whole run: dedicated gossip pushes sent and delta-suppressed,
	// and the chunked-repair frames served while catching up shed windows.
	GossipSent          uint64
	GossipSuppressed    uint64
	RepairChunksServed  uint64
	RepairChunkMaxBytes uint64
}

// Ok reports whether the run passed: a fully drained cluster and zero
// consistency violations.
func (r *Result) Ok() bool { return r.Drained && len(r.Violations) == 0 }

// String renders a one-line summary.
func (r *Result) String() string {
	status := "PASS"
	if !r.Ok() {
		status = "FAIL"
	}
	return fmt.Sprintf("%-28s %s seed=%-4d committed=%-6d failed=%-5d migrations=%-4d checks=%-3d violations=%d drained=%v",
		r.Scenario, status, r.Seed, r.Committed, r.Failed, r.Migrations, r.Checks, len(r.Violations), r.Drained)
}

// Scenario is one named composition of fault primitives over a workload.
type Scenario struct {
	// Name identifies the scenario (also the TestNemesis_* suffix).
	Name string
	// Info is a one-line description of what the scenario composes.
	Info string
	// Mix is the workload driven throughout the run.
	Mix workload.Mix
	// Configure adapts the base cluster config (e.g. enables clock skew).
	Configure func(cfg *paris.Config)
	// MigrateEvery, when positive, migrates each session to a random other
	// DC every N committed transactions, carrying its causal state.
	MigrateEvery int
	// Script injects faults on the Env's seeded schedule until Env.Sleep
	// returns false. It need not heal on exit: the runner force-heals the
	// network and restarts crashed nodes afterwards.
	Script func(e *Env)
}

// Env is the scenario script's view of the cluster under test.
type Env struct {
	Cluster *paris.Cluster
	Topo    *topology.Topology
	// Rng drives every random choice the script makes; it is private to the
	// script goroutine.
	Rng *rand.Rand

	r *runner
}

// Sleep pauses the fault schedule, returning false when the fault phase is
// over and the script should return.
func (e *Env) Sleep(d time.Duration) bool {
	select {
	case <-e.r.faultStop:
		return false
	case <-time.After(d):
		return true
	}
}

// Jitter returns a duration drawn uniformly from [d/2, 3d/2): episode
// lengths vary run to run (under the seed) so heals race different protocol
// phases each time.
func (e *Env) Jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(e.Rng.Int63n(int64(d)))
}

// Logf records (and forwards) a timed fault-schedule event.
func (e *Env) Logf(format string, args ...any) { e.r.logf(format, args...) }

// RandDCPair picks two distinct data centers.
func (e *Env) RandDCPair() (topology.DCID, topology.DCID) {
	n := e.Topo.NumDCs()
	a := e.Rng.Intn(n)
	b := e.Rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return topology.DCID(a), topology.DCID(b)
}

// RandServer picks a random partition replica.
func (e *Env) RandServer() topology.NodeID {
	all := e.Topo.AllServers()
	return all[e.Rng.Intn(len(all))]
}

// Crash crashes a server through the cluster's crash/restart API, tracking
// it so the runner restarts it during the heal phase if the script does not.
func (e *Env) Crash(id topology.NodeID) bool {
	if err := e.Cluster.CrashServer(id); err != nil {
		return false
	}
	e.r.mu.Lock()
	e.r.down[id] = true
	e.r.mu.Unlock()
	e.Logf("crash %v", id)
	return true
}

// Restart revives a crashed server with the given recovery hold.
func (e *Env) Restart(id topology.NodeID, hold time.Duration) bool {
	if err := e.Cluster.RestartServer(id, hold); err != nil {
		return false
	}
	e.r.mu.Lock()
	delete(e.r.down, id)
	e.r.mu.Unlock()
	e.Logf("restart %v (hold %v)", id, hold)
	return true
}

// recoveryHold is the apply-plane freeze a restarted server observes: long
// enough for coordinators to re-deliver lost commit decisions, short enough
// that the heal phase's drain comfortably outlives it.
const recoveryHold = 200 * time.Millisecond

// baseConfig is the cluster every scenario starts from: small and fast so
// fault episodes cover many protocol rounds, with a prepared-transaction
// envelope (PreparedTTL) comfortably longer than any single episode so
// decided transactions are never hard-deadline reaped mid-partition.
func baseConfig(mode paris.Mode, seed int64) paris.Config {
	return paris.Config{
		NumDCs:            3,
		NumPartitions:     6,
		ReplicationFactor: 2,
		Mode:              mode,
		Latency:           transport.Uniform{IntraDC: 0, InterDC: 2 * time.Millisecond},
		ApplyInterval:     time.Millisecond,
		GossipInterval:    time.Millisecond,
		USTInterval:       time.Millisecond,
		GCInterval:        5 * time.Millisecond,
		CallTimeout:       400 * time.Millisecond,
		PreparedTTL:       2 * time.Second,
		Seed:              seed,
	}
}

// Run executes one scenario end to end.
func Run(opts Options) (*Result, error) {
	scen, ok := Lookup(opts.Scenario)
	if !ok {
		return nil, fmt.Errorf("nemesis: unknown scenario %q (have %v)", opts.Scenario, Names())
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.FaultPhase <= 0 {
		opts.FaultPhase = 1200 * time.Millisecond
	}
	if opts.WorkersPerDC <= 0 {
		opts.WorkersPerDC = 2
	}

	cfg := baseConfig(opts.Mode, opts.Seed)
	if scen.Configure != nil {
		scen.Configure(&cfg)
	}
	cluster, err := paris.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	r := &runner{
		opts:      opts,
		scen:      scen,
		cluster:   cluster,
		topo:      cluster.Topology(),
		ks:        workload.NewKeyspace(cluster.Topology(), 20),
		live:      &check.Live{},
		faultStop: make(chan struct{}),
		stop:      make(chan struct{}),
		down:      make(map[topology.NodeID]bool),
		start:     time.Now(),
	}
	return r.run()
}

// runner holds one run's mutable state.
type runner struct {
	opts    Options
	scen    Scenario
	cluster *paris.Cluster
	topo    *topology.Topology
	ks      *workload.Keyspace
	live    *check.Live

	faultStop chan struct{} // closed when the fault phase ends
	stop      chan struct{} // closed when the workload should stop
	start     time.Time

	committed  atomic.Uint64
	failed     atomic.Uint64
	migrations atomic.Uint64

	mu     sync.Mutex
	events []string
	down   map[topology.NodeID]bool
}

func (r *runner) logf(format string, args ...any) {
	line := fmt.Sprintf("%8s  %s", time.Since(r.start).Round(time.Millisecond), fmt.Sprintf(format, args...))
	r.mu.Lock()
	r.events = append(r.events, line)
	r.mu.Unlock()
	if r.opts.Logf != nil {
		r.opts.Logf("%s", line)
	}
}

func (r *runner) run() (*Result, error) {
	res := &Result{Scenario: r.scen.Name, Seed: r.opts.Seed, Mode: r.cluster.Config().Mode}

	var wg sync.WaitGroup
	workers := r.topo.NumDCs() * r.opts.WorkersPerDC
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w)
		}(w)
	}

	// Live checker: validates the recorded prefix while faults are active.
	checkDone := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-r.stop:
				checkDone <- n
				return
			case <-time.After(100 * time.Millisecond):
				n++
				if vs := r.live.CheckNow(); len(vs) > 0 {
					r.mu.Lock()
					res.Violations = append(res.Violations, vs...)
					r.mu.Unlock()
					r.logf("live check: %d violation(s)", len(vs))
					checkDone <- n
					return
				}
			}
		}
	}()

	// Fault phase: the scenario script runs its seeded schedule.
	scriptDone := make(chan struct{})
	env := &Env{
		Cluster: r.cluster,
		Topo:    r.topo,
		Rng:     rand.New(rand.NewSource(r.opts.Seed)),
		r:       r,
	}
	go func() {
		defer close(scriptDone)
		r.scen.Script(env)
	}()
	time.Sleep(r.opts.FaultPhase)
	close(r.faultStop)
	<-scriptDone

	// Heal phase: force-heal the network, restart anything still down, and
	// keep the workload running so recovery lands in the checked history.
	r.healAll()
	time.Sleep(r.opts.FaultPhase / 2)

	close(r.stop)
	wg.Wait()
	res.Checks = <-checkDone

	// Drain: a probe write must become universally stable — the UST plane
	// recovered and every server is advancing again.
	res.Drained = r.drain()

	// Final validation over the complete history, including everything
	// committed during faults and recovery.
	if vs := r.live.CheckNow(); len(vs) > 0 {
		res.Violations = append(res.Violations, vs...)
	}
	res.Checks++

	// Flow-control aggregates, collected while the cluster is still open.
	for _, srv := range r.cluster.Servers() {
		for _, st := range srv.FlowStats() {
			if st.MaxQueuedBytes > res.FlowMaxQueuedBytes {
				res.FlowMaxQueuedBytes = st.MaxQueuedBytes
			}
			res.FlowDegradedEntries += st.DegradedEntries
			res.FlowDegradedExits += st.DegradedExits
			res.FlowShedRounds += st.ShedRounds
			res.FlowCoalesced += st.Coalesced
			res.FlowThrottledFor += st.ThrottledFor
		}
		m := srv.Metrics()
		res.GossipSent += m.GossipSent
		res.GossipSuppressed += m.GossipSuppressed
		res.RepairChunksServed += m.RepairChunksServed
		if m.RepairChunkMaxBytes > res.RepairChunkMaxBytes {
			res.RepairChunkMaxBytes = m.RepairChunkMaxBytes
		}
	}

	res.Committed = r.committed.Load()
	res.Failed = r.failed.Load()
	res.Migrations = r.migrations.Load()
	res.Elapsed = time.Since(r.start)
	r.mu.Lock()
	res.Events = append([]string(nil), r.events...)
	r.mu.Unlock()
	r.logf("done: committed=%d failed=%d migrations=%d", res.Committed, res.Failed, res.Migrations)
	return res, nil
}

// healAll clears every fault the scenario may have left behind: DC
// partitions, node faults, directed link faults, slow links, and crashed
// servers.
func (r *runner) healAll() {
	net := r.cluster.Net()
	numDCs := r.topo.NumDCs()
	for a := 0; a < numDCs; a++ {
		for b := a + 1; b < numDCs; b++ {
			net.SetPartitioned(topology.DCID(a), topology.DCID(b), false)
		}
	}
	all := r.topo.AllServers()
	for _, id := range all {
		net.SetNodeFault(id, transport.FaultNone)
	}
	for _, from := range all {
		for _, to := range all {
			if from != to {
				net.SetLinkFault(from, to, transport.FaultNone)
			}
		}
	}
	net.ClearSlowLinks()
	r.mu.Lock()
	down := make([]topology.NodeID, 0, len(r.down))
	for id := range r.down {
		down = append(down, id)
	}
	r.down = make(map[topology.NodeID]bool)
	r.mu.Unlock()
	for _, id := range down {
		if err := r.cluster.RestartServer(id, recoveryHold); err != nil {
			r.logf("heal: restart %v: %v", id, err)
		} else {
			r.logf("heal: restart %v (hold %v)", id, recoveryHold)
		}
	}
	r.logf("healed all faults")
}

// drain writes a probe through a fresh session and waits for it to become
// universally stable.
func (r *runner) drain() bool {
	sess, err := r.cluster.NewSession(0)
	if err != nil {
		r.logf("drain: session: %v", err)
		return false
	}
	defer sess.Close()
	ctx := context.Background()
	var ct paris.Timestamp
	// The first probes may still hit post-heal turbulence (e.g. a cohort
	// answering a retried prepare); a committed probe is what matters.
	for attempt := 0; attempt < 10; attempt++ {
		ct, err = sess.Put(ctx, map[string][]byte{"nemesis-drain-probe": []byte("x")})
		if err == nil {
			break
		}
		sess.Client().Abandon()
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		r.logf("drain: probe write: %v", err)
		return false
	}
	ok := r.cluster.WaitForUST(ct, 10*time.Second)
	r.logf("drain: probe ct=%v stable=%v", ct, ok)
	return ok
}

// worker is one closed-loop recorded session: it runs workload transactions
// until stopped, tolerating mid-fault errors, recording every committed
// transaction, and (when the scenario asks) migrating across DCs with its
// causal state.
func (r *runner) worker(w int) {
	numDCs := r.topo.NumDCs()
	dc := topology.DCID(w % numDCs)
	sess, err := r.cluster.NewSession(dc)
	if err != nil {
		r.logf("worker %d: session: %v", w, err)
		return
	}
	defer func() { sess.Close() }()
	gen := workload.NewGenerator(r.scen.Mix, r.topo, r.ks, dc, r.opts.Seed+int64(w)*7919)
	rng := rand.New(rand.NewSource(r.opts.Seed ^ (int64(w+1) << 20)))
	ctx := context.Background()
	seq := 0
	sinceMigrate := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		rec, err := runRecorded(ctx, sess, w, seq, gen.Next())
		seq++
		if err != nil {
			// Mid-fault failures are the point of the exercise; abandon any
			// half-open transaction and keep going. A commit that errored may
			// still have taken effect server-side — it stays out of the
			// history, where the checker safely ignores unrecorded writers.
			sess.Client().Abandon()
			r.failed.Add(1)
			time.Sleep(time.Duration(rng.Intn(2)+1) * time.Millisecond)
			continue
		}
		r.live.Add(rec)
		r.committed.Add(1)
		sinceMigrate++
		if r.scen.MigrateEvery > 0 && sinceMigrate >= r.scen.MigrateEvery {
			sinceMigrate = 0
			if target := topology.DCID(rng.Intn(numDCs)); target != dc {
				if ns, err := r.cluster.MigrateSession(sess, target); err == nil {
					sess, dc = ns, target
					gen = workload.NewGenerator(r.scen.Mix, r.topo, r.ks, dc, r.opts.Seed+int64(w)*7919+int64(seq))
					r.migrations.Add(1)
				}
			}
		}
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}
}

// runRecorded executes one plan transactionally, returning the check.Tx
// record on success. On error the transaction may be half-open; the caller
// abandons it.
func runRecorded(ctx context.Context, sess *paris.Session, session, seq int, plan workload.TxPlan) (check.Tx, error) {
	tx, err := sess.Begin(ctx)
	if err != nil {
		return check.Tx{}, err
	}
	rec := check.Tx{
		Session: session,
		Seq:     seq,
	}
	if len(plan.ReadKeys) > 0 {
		if _, err := tx.Read(ctx, plan.ReadKeys...); err != nil {
			return check.Tx{}, err
		}
		for _, k := range plan.ReadKeys {
			item, found := sess.Client().Observed(k)
			rec.Reads = append(rec.Reads, check.ReadObs{
				Key: k, Writer: item.TxID, UT: item.UT, Found: found,
			})
		}
	}
	for _, kv := range plan.Writes {
		if err := tx.Write(kv.Key, kv.Value); err != nil {
			return check.Tx{}, err
		}
		rec.Writes = append(rec.Writes, kv.Key)
	}
	ct, err := tx.Commit(ctx)
	if err != nil {
		return check.Tx{}, err
	}
	// The id and snapshot are assigned by the transaction's first read or,
	// for one that only writes, by its commit: sample them now that both ran.
	rec.CommitTS, rec.Snapshot = ct, sess.Client().Snapshot()
	if ct != 0 { // read-only: id not meaningful in the history
		rec.ID = sess.Client().TxID()
	}
	return rec, nil
}
