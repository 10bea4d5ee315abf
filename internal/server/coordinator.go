package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// This file implements the transaction-coordinator role (Algorithm 2). Any
// server can coordinate any transaction; clients pick a coordinator in their
// local DC and send every operation of the session to it.
//
// Beyond the paper's algorithm, the coordinator handles cohort failure:
// remote reads and prepares fail over to alternate replicas of the partition,
// and a two-phase commit whose prepare phase cannot complete is explicitly
// aborted on every cohort it touched (wire.AbortTx), so a failed peer costs
// one transaction instead of freezing the UST system-wide.

// startTx implements Alg. 2 lines 1–5: it assigns the snapshot and the
// transaction id and installs the context. A transaction starts with its
// first ReadReq or CommitReq (TxID zero), so this runs at the head of
// handleRead/handleCommit rather than in a round trip of its own. The
// transaction id comes from an atomic sequence; the context goes in with one
// critical section of the context table's lock.
func (s *Server) startTx(clientUST hlc.Timestamp) (wire.TxID, hlc.Timestamp) {
	var (
		snapshot hlc.Timestamp
		ust      *atomicTS
	)
	if s.cfg.Mode == ModeBlocking {
		// BPR: snapshot is the max of the client's highest snapshot and the
		// coordinator's clock — fresher than the UST, but reads will block.
		snapshot = hlc.Max(clientUST, s.clock.Now())
	} else {
		// ust mn ← max{ust mn, ustc}: the client may have observed a fresher
		// stable snapshot on another coordinator. (In BPR the client value is
		// clock-derived and not evidence of universal stability.) Folding
		// before loading keeps the session monotonic: the snapshot handed
		// back is at least the client's own stable time. The snapshot is the
		// UST loaded inside the critical section that inserts the context
		// (txTable.put), which keeps the GC watermark below it.
		s.observeUST(clientUST)
		ust = &s.ust
	}
	id := wire.NewTxID(s.self.DC, s.self.Partition(), s.txSeq.Add(1))
	snapshot = s.txCtx.put(id, txContext{snapshot: snapshot, lastActive: s.label()}, ust)
	s.metrics.txStarted.Add(1)
	return id, snapshot
}

// handleStartTx answers a bare StartTxReq. Clients never send one; it stays
// for tools that drive a coordinator message by message.
func (s *Server) handleStartTx(req wire.StartTxReq) wire.Message {
	id, snapshot := s.startTx(req.ClientUST)
	return wire.StartTxResp{TxID: id, Snapshot: snapshot}
}

// txSnapshot resolves the transaction a ReadReq or CommitReq belongs to: a
// zero id starts one (the request is the transaction's first operation), any
// other id must name a live context, whose activity clock is refreshed.
func (s *Server) txSnapshot(id wire.TxID, clientUST hlc.Timestamp) (wire.TxID, hlc.Timestamp, bool) {
	if id == 0 {
		id, snapshot := s.startTx(clientUST)
		return id, snapshot, true
	}
	ctx, ok := s.txCtx.touchGet(id, s.label())
	return id, ctx.snapshot, ok
}

// handleFinishTx discards the context of a read-only transaction.
func (s *Server) handleFinishTx(m wire.FinishTx) {
	s.txCtx.delete(m.TxID)
}

// handleRead implements Alg. 2 lines 6–16: group keys by partition, read all
// partitions in parallel (choosing a local replica when one exists, else the
// preferred remote replica, failing over to alternates), merge the slices in
// request-key order.
//
// The common case under a sharded keyspace — every key on one partition —
// takes a fast path that skips the grouping, the goroutine fan-out, and the
// merge entirely: one context-table touch, one slice read, done. The
// multi-partition path draws its grouping scratch state from a pool and runs
// the first partition on the calling goroutine, so a P-partition read costs
// P−1 goroutines and no per-read map.
func (s *Server) handleRead(req wire.ReadReq) wire.Message {
	id, snapshot, ok := s.txSnapshot(req.TxID, req.ClientUST)
	if !ok {
		return wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "read: unknown transaction " + id.String()}
	}
	// Keys the client's write cache holds are read only where the snapshot has
	// passed the cached version: exactly the entries the client will prune.
	keys := req.Keys[:len(req.Keys):len(req.Keys)] // an append copies, never writes into the request's array
	for _, ck := range req.Cached {
		if ck.UT <= snapshot {
			keys = append(keys, ck.Key)
		}
	}
	if len(keys) == 0 {
		return wire.ReadResp{TxID: id, Snapshot: snapshot}
	}

	// Detect the single-partition case and build the fan-out grouping in one
	// pass, hashing each key exactly once: keys before the first mismatch
	// all belong to the first key's partition, so the grouping can start
	// from them wholesale when a mismatch ends the fast path.
	p0 := s.cfg.Topology.PartitionOf(keys[0])
	var f *readFanout
	for j, k := range keys[1:] {
		p := s.cfg.Topology.PartitionOf(k)
		if f == nil {
			if p == p0 {
				continue
			}
			f = getReadFanout()
			for _, pk := range keys[:j+1] {
				f.add(p0, pk)
			}
		}
		f.add(p, k)
	}
	if f == nil {
		items, err := s.readSliceAt(p0, keys, snapshot)
		if err != nil {
			return s.readFailed(id, req.TxID == 0, err)
		}
		// Refresh the context: the slice may have waited on a remote replica
		// for a sizeable fraction of the TTL, and the session's next
		// operation must still find its context alive.
		s.txCtx.touch(id, s.label())
		s.metrics.readsServed.Add(uint64(len(keys)))
		return wire.ReadResp{TxID: id, Snapshot: snapshot, Items: items}
	}
	// Rebind before the goroutine capture: closing over f itself would move
	// the variable to the heap and charge the single-partition fast path —
	// which never touches it — one allocation per read.
	g := f
	var wg sync.WaitGroup
	for i := 1; i < len(g.parts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.items[i], g.errs[i] = s.readSliceAt(g.parts[i], g.keys[i], snapshot)
		}(i)
	}
	g.items[0], g.errs[0] = s.readSliceAt(g.parts[0], g.keys[0], snapshot)
	wg.Wait()

	if err := g.firstError(); err != nil {
		putReadFanout(g)
		return s.readFailed(id, req.TxID == 0, err)
	}
	s.txCtx.touch(id, s.label())
	items := g.mergeInOrder(keys)
	putReadFanout(g)
	s.metrics.readsServed.Add(uint64(len(keys)))
	return wire.ReadResp{TxID: id, Snapshot: snapshot, Items: items}
}

// readFailed answers a read whose fan-out failed. When the request started
// the transaction the client never learns its id, so nothing could ever
// release the context: drop it here instead of letting it pin the GC
// watermark until the TTL evicts it.
func (s *Server) readFailed(id wire.TxID, started bool, err error) wire.Message {
	if started {
		s.txCtx.delete(id)
	} else {
		s.txCtx.touch(id, s.label())
	}
	return readErrorResp(err)
}

// readErrorResp converts a fan-out error into the client-facing response,
// preserving the remote error code — a CodeTxAborted from a cohort must not
// be flattened into CodeUnavailable, or clients would retry a transaction
// that can never succeed. Errors with no wire code are transport failures,
// which genuinely are unavailability.
func readErrorResp(err error) wire.Message {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return wire.ErrorResp{Code: re.Code, Msg: "read: " + re.Msg}
	}
	return wire.ErrorResp{Code: wire.CodeUnavailable, Msg: "read: " + err.Error()}
}

// readFanout is the scratch state of one multi-partition read: the partition
// grouping, the per-partition result slices, and the merge cursors. Instances
// cycle through a pool; all slices retain capacity across reads.
type readFanout struct {
	parts []topology.PartitionID
	keys  [][]string
	items [][]wire.Item
	errs  []error
	kcur  []int // merge cursor into keys[i]
	icur  []int // merge cursor into items[i]
}

var readFanoutPool = sync.Pool{New: func() interface{} { return new(readFanout) }}

func getReadFanout() *readFanout {
	return readFanoutPool.Get().(*readFanout)
}

// maxPooledFanoutKeys caps the per-group key capacity a pooled readFanout
// may retain, so one pathological huge read does not pin its high-water
// mark forever (the fan-out analogue of wire.maxPooledCap).
const maxPooledFanoutKeys = 4096

// putReadFanout truncates and recycles the scratch state. Everything the
// last read referenced — key strings, result items, errors — is cleared so
// the pool pins only bare capacity, never response data; outsized scratch
// is dropped instead of pooled.
func putReadFanout(f *readFanout) {
	for i := range f.keys {
		if cap(f.keys[i]) > maxPooledFanoutKeys {
			return // let the whole object go; a fresh one starts small
		}
	}
	f.parts = f.parts[:0]
	for i := range f.keys {
		clear(f.keys[i])
		f.keys[i] = f.keys[i][:0]
	}
	clear(f.items)
	f.items = f.items[:0]
	clear(f.errs)
	f.errs = f.errs[:0]
	f.kcur = f.kcur[:0]
	f.icur = f.icur[:0]
	readFanoutPool.Put(f)
}

// add appends key to its partition's group, creating the group on first
// sight. Reads touch a handful of partitions, so the linear probe beats a
// map both in allocations and in constant factor.
func (f *readFanout) add(p topology.PartitionID, key string) {
	for i, q := range f.parts {
		if q == p {
			f.keys[i] = append(f.keys[i], key)
			return
		}
	}
	f.parts = append(f.parts, p)
	if len(f.keys) < len(f.parts) {
		f.keys = append(f.keys, nil)
	}
	i := len(f.parts) - 1
	f.keys[i] = append(f.keys[i][:0], key)
	f.items = append(f.items, nil)
	f.errs = append(f.errs, nil)
	f.kcur = append(f.kcur, 0)
	f.icur = append(f.icur, 0)
}

// firstError returns the error to surface: the first non-retryable one if
// any (a protocol refusal explains the failure better than a coincident
// transport timeout), else the first error.
func (f *readFanout) firstError() error {
	var first error
	for _, err := range f.errs {
		if err == nil {
			continue
		}
		if !retryableOnReplica(err) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// mergeInOrder assembles the per-partition slices into one response in
// request-key order, so responses are deterministic and client-side merging
// is a plain zip. add filled each group's key list in request order, so a
// key-cursor per group recovers the grouping by string comparison — no
// re-hashing (a key hashes to exactly one partition, so at most one group's
// cursor head can match). Each result slice likewise preserves its
// sub-request order, walked by its own cursor; keys with no visible version
// advance the key cursor but not the item cursor.
func (f *readFanout) mergeInOrder(keys []string) []wire.Item {
	total := 0
	for _, sl := range f.items {
		total += len(sl)
	}
	out := make([]wire.Item, 0, total)
	for _, k := range keys {
		for i := range f.parts {
			c := f.kcur[i]
			if c >= len(f.keys[i]) || f.keys[i][c] != k {
				continue
			}
			f.kcur[i] = c + 1
			if ic := f.icur[i]; ic < len(f.items[i]) && f.items[i][ic].Key == k {
				out = append(out, f.items[i][ic])
				f.icur[i] = ic + 1
			}
			break
		}
	}
	return out
}

// retryableOnReplica reports whether an operation that failed with err may be
// retried on another replica of the partition: transport failures (peer down,
// link fault, timeout) and remote unavailability are retryable, protocol
// refusals (unknown transaction, aborted) are not.
func retryableOnReplica(err error) bool {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return re.Code == wire.CodeUnavailable || re.Code == wire.CodeShuttingDown
	}
	return true
}

// readSliceAt reads keys of one partition within the snapshot, trying each
// replica of the partition in the selector's preference order. Failing over a
// read is always safe: in PaRiS mode the snapshot is universally stable, so
// every replica already holds everything it contains; in BPR mode the
// alternate replica blocks until it has installed the snapshot, exactly as
// the preferred one would have.
func (s *Server) readSliceAt(p topology.PartitionID, keys []string, snapshot hlc.Timestamp) ([]wire.Item, error) {
	req := wire.ReadSliceReq{Keys: keys, Snapshot: snapshot}
	// Fast path: the preferred replica, with no failover bookkeeping — this
	// runs on every read of every transaction.
	preferred := topology.ServerID(s.cfg.Selector.TargetDC(s.self.DC, p), p)
	items, err := s.readSliceFrom(preferred, req)
	if err == nil || !retryableOnReplica(err) {
		return items, err
	}
	for _, dc := range s.cfg.Selector.Alternates(s.self.DC, p) {
		s.metrics.readFailovers.Add(1)
		items, nerr := s.readSliceFrom(topology.ServerID(dc, p), req)
		if nerr == nil {
			return items, nil
		}
		err = nerr
		if !retryableOnReplica(nerr) {
			break
		}
	}
	return nil, err
}

// readSliceFrom serves the slice from one replica: a local call when the
// replica is this server, a remote call otherwise. The local PaRiS case goes
// straight to the store — no message wrapping and unwrapping, no allocation
// beyond the result slice.
func (s *Server) readSliceFrom(target topology.NodeID, req wire.ReadSliceReq) ([]wire.Item, error) {
	if target == s.self {
		if s.cfg.Mode == ModeBlocking {
			return sliceItems(s.handleReadSliceBlocking(req))
		}
		return s.readLocal(req.Keys, req.Snapshot), nil
	}
	// The wire gets a private copy of the key list: transports deliver
	// messages zero-copy in-process, and a timed-out call abandons the
	// request while the replica may still hold it (queued behind a healing
	// partition, or blocked in BPR's installation wait) — whereas the pooled
	// readFanout recycles the backing array the moment the fan-out returns.
	req.Keys = append([]string(nil), req.Keys...)
	resp, err := s.peer.CallTimeout(context.Background(), target, req, s.cfg.CallTimeout)
	if err != nil {
		return nil, err
	}
	return sliceItems(resp)
}

func sliceItems(resp wire.Message) ([]wire.Item, error) {
	switch m := resp.(type) {
	case wire.ReadSliceResp:
		return m.Items, nil
	case wire.ErrorResp:
		return nil, m.Err()
	default:
		return nil, wire.ErrorResp{Msg: "unexpected read-slice response"}.Err()
	}
}

// prepareOutcome is the result of one partition's prepare attempt(s).
type prepareOutcome struct {
	// part is the partition this outcome prepares.
	part topology.PartitionID
	// acked is the replica whose PrepareResp the coordinator holds; it is
	// the replica that must receive the CohortCommit or AbortTx decision,
	// or, for a sole prepare, the replica that committed.
	acked topology.NodeID
	// ok reports whether any replica acknowledged the prepare.
	ok       bool
	proposed hlc.Timestamp
	// tried lists every replica a prepare was sent to. A prepare whose call
	// failed may still have landed (the response, not the request, may have
	// been lost), so all of them are released on abort — and the non-acked
	// ones even on success.
	tried []topology.NodeID
	err   error
	// writes is the partition's slice of the write-set, retained so a failed
	// CohortCommit cast can fall back to an acknowledged CommitRecover call
	// that re-delivers the decision together with the data — the only copy a
	// cohort that crashed and restarted since preparing still needs.
	writes []wire.KV
}

// groupWrites splits a write-set by partition into one outcome per partition
// touched, in order of first appearance. Commits touch a handful of
// partitions, so a linear probe replaces a map, and the groups are carved out
// of one array the size of the write-set: a first pass counts each group, a
// second fills them.
func (s *Server) groupWrites(writes []wire.KV) []prepareOutcome {
	topo := s.cfg.Topology
	outcomes := make([]prepareOutcome, 0, min(len(writes), topo.NumPartitions()))
	counts := make([]int, 0, 8)
	for _, kv := range writes {
		p := topo.PartitionOf(kv.Key)
		if i := outcomeOf(outcomes, p); i >= 0 {
			counts[i]++
			continue
		}
		outcomes = append(outcomes, prepareOutcome{part: p})
		counts = append(counts, 1)
	}
	all := make([]wire.KV, len(writes))
	for i, n := range counts {
		outcomes[i].writes, all = all[:0:n], all[n:]
	}
	for _, kv := range writes {
		i := outcomeOf(outcomes, topo.PartitionOf(kv.Key))
		outcomes[i].writes = append(outcomes[i].writes, kv)
	}
	return outcomes
}

// outcomeOf returns the index of partition p's outcome, or -1.
func outcomeOf(outcomes []prepareOutcome, p topology.PartitionID) int {
	for i := range outcomes {
		if outcomes[i].part == p {
			return i
		}
	}
	return -1
}

// handleCommit implements Alg. 2 lines 17–29: the two-phase commit. The
// coordinator collects proposed prepare times from every partition touched by
// the write-set, picks the maximum as the commit time, and notifies cohorts
// and client. A prepare that fails on the preferred replica fails over to the
// partition's alternates; if no replica of some partition acknowledges, the
// transaction is aborted on every cohort a prepare was sent to. A
// transaction that writes one partition has no decision to distribute and
// commits through commitSole instead.
func (s *Server) handleCommit(req wire.CommitReq) wire.Message {
	id, snapshot, ok := s.txSnapshot(req.TxID, req.ClientUST)
	if !ok {
		return wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "commit: unknown transaction " + id.String()}
	}
	if len(req.Writes) == 0 {
		s.handleFinishTx(wire.FinishTx{TxID: id})
		return wire.CommitResp{TxID: id, Snapshot: snapshot}
	}

	// ht ← max{ust, hwt}: the highest timestamp the client has observed.
	ht := hlc.Max(snapshot, req.HWT)

	outcomes := s.groupWrites(req.Writes)
	if len(outcomes) == 1 {
		return s.commitSole(&outcomes[0], id, snapshot, ht)
	}

	// Mark the 2PC in flight before any prepare can land anywhere: from this
	// moment until a decision is recorded, cohort status queries must be
	// answered "pending" — even if the transaction context is TTL-evicted
	// while a long failover chain grinds on.
	t := &s.twoPC
	t.mu.Lock()
	t.committing[id] = struct{}{}
	t.mu.Unlock()

	// Prepare phase, in parallel across partitions, with per-partition
	// replica failover. The first partition prepares on the calling
	// goroutine, so a P-partition commit costs P−1 goroutines.
	var wg sync.WaitGroup
	for i := 1; i < len(outcomes); i++ {
		wg.Add(1)
		go func(out *prepareOutcome) {
			defer wg.Done()
			s.preparePartition(out, wire.PrepareReq{TxID: id, Snapshot: snapshot, HT: ht, Writes: out.writes})
		}(&outcomes[i])
	}
	s.preparePartition(&outcomes[0], wire.PrepareReq{TxID: id, Snapshot: snapshot, HT: ht, Writes: outcomes[0].writes})
	wg.Wait()

	var commitTS hlc.Timestamp
	var firstErr error
	for _, out := range outcomes {
		if !out.ok {
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		if out.proposed > commitTS {
			commitTS = out.proposed
		}
	}

	if firstErr != nil {
		// Abort: release every cohort a prepare was sent to before surfacing
		// the error. Without this, the cohorts that did prepare would hold
		// their entries forever, pinning ub = min{prepared.pt} − 1, freezing
		// the partition's version-vector entry, and with it the UST — the
		// global minimum — in every data center. The local tombstone also
		// answers cohort status queries with "aborted" if an abort cast is
		// itself lost.
		s.castAbort(id, outcomes, false)
		s.handleAbortTx(wire.AbortTx{TxID: id})
		s.txCtx.delete(id)
		t.mu.Lock()
		delete(t.committing, id) // the tombstone above now answers queries
		t.mu.Unlock()
		s.metrics.txAborted.Add(1)
		return wire.ErrorResp{Code: wire.CodeTxAborted, Msg: "commit aborted: " + firstErr.Error()}
	}

	// Commit phase: notify the acked cohorts (no ack needed) and answer the
	// client. Replicas that were tried but superseded by a failover get an
	// abort instead, so a prepare whose response (not request) was lost does
	// not linger. Every cohort gets the same decision, boxed at most once.
	cc := wire.CohortCommit{TxID: id, CommitTS: commitTS}
	var boxed wire.Message
	for _, out := range outcomes {
		if out.acked == s.self {
			s.handleCohortCommit(cc)
			continue
		}
		if boxed == nil {
			boxed = cc
		}
		if err := s.peer.Cast(out.acked, boxed); err != nil {
			// Lossless FIFO links: when the cast is accepted it arrives after
			// the cohort's prepare insert, which happened before its
			// PrepareResp. When it is refused — the cohort crashed or its link
			// errored in the window since the prepare — the decision exists
			// only here, so ask the cohort until it acknowledges it (an
			// inquiry); dropping it would silently lose this partition's
			// slice of the transaction.
			s.inq.confirm(out.acked, id, commitTS, out.writes)
		}
	}
	s.castAbort(id, outcomes, true) // release non-acked attempts only

	acked := make([]topology.NodeID, 0, len(outcomes))
	for _, out := range outcomes {
		acked = append(acked, out.acked)
	}
	s.txCtx.delete(id)
	t.mu.Lock()
	// Remember the decision (bounded; pruned with the tombstones) so a
	// cohort whose CohortCommit cast was lost recovers the commit through a
	// status query instead of reaping an acknowledged transaction. The
	// in-flight marker comes off only now that the decision is queryable.
	t.decideLocked(id, decidedTx{ct: commitTS, at: s.label(), acked: acked})
	delete(t.committing, id)
	t.mu.Unlock()
	s.metrics.txCommitted.Add(1)
	return wire.CommitResp{TxID: id, Snapshot: snapshot, CommitTS: commitTS}
}

// handleTxStatus answers a cohort reaper's question about a transaction this
// server coordinated. The decision memory outlives any in-flight
// notification by the abort-retention margin, so "unknown" reliably means
// the transaction can never commit here anymore. A committed decision is
// confirmed only to the cohorts it was built on: a replica whose prepare was
// superseded by a failover alternate must discard its entry, or two replicas
// of one partition would both apply (and re-replicate) the transaction.
func (s *Server) handleTxStatus(from topology.NodeID, req wire.TxStatusReq) wire.Message {
	t := &s.twoPC
	t.mu.Lock()
	defer t.mu.Unlock()
	if d, ok := t.decided[req.TxID]; ok {
		if nodeListed(d.acked, from) {
			return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusCommitted, CommitTS: d.ct}
		}
		return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusAborted}
	}
	if _, ok := t.aborted[req.TxID]; ok {
		return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusAborted}
	}
	if s.decidingLocked(req.TxID) {
		return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusPending}
	}
	return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusUnknown}
}

// commitSole commits a transaction that writes one partition: the
// partition's only cohort decides alone (a sole prepare, see handlePrepare),
// so the commit is one call to it and there is no commit phase — no
// CohortCommit, no decision record, no in-flight marker, because no cohort
// ever holds a prepared entry to ask about. On this server's own replica the
// call is a direct one.
//
// Failing over is safe only while no replica can have committed: the prepare
// moves on to an alternate replica when the transport refused to send it
// (transport.ErrNotSent) or the cohort answered with a retryable refusal.
// After a send whose answer never came (a timeout, or calls failed while it
// was outstanding) the outcome is unknown: a second replica would commit the
// same writes at a second timestamp, so the coordinator gives up instead,
// tells the client the outcome is unknown, and drops the context so a retry
// of the id is refused.
func (s *Server) commitSole(out *prepareOutcome, id wire.TxID, snapshot, ht hlc.Timestamp) wire.Message {
	s.preparePartition(out, wire.PrepareReq{TxID: id, Snapshot: snapshot, HT: ht, Writes: out.writes, Sole: true})
	s.txCtx.delete(id)
	switch {
	case out.ok:
		if out.acked != s.self {
			// Yield before answering, where a two-phase commit casts its
			// decision. Otherwise a session's transactions form a closed
			// chain of hand-offs between goroutines that each ready the
			// next, and a chain of such hand-offs inherits its time slice:
			// the round goroutines whose timers fired wait behind it for up
			// to that slice. On two CPUs the rounds' p90 lateness went from
			// 0.7 ms to 1.5–3.9 ms without this yield, and with it the
			// visibility latency.
			runtime.Gosched()
		}
		s.metrics.txCommitted.Add(1)
		return wire.CommitResp{TxID: id, Snapshot: snapshot, CommitTS: out.proposed}
	case errors.Is(out.err, errOutcomeUnknown):
		return wire.ErrorResp{Code: wire.CodeUnavailable, Msg: "commit: " + out.err.Error()}
	default:
		s.metrics.txAborted.Add(1)
		return wire.ErrorResp{Code: wire.CodeTxAborted, Msg: "commit aborted: " + out.err.Error()}
	}
}

// errOutcomeUnknown marks a sole prepare that may have committed: it was
// sent, and no answer came back.
var errOutcomeUnknown = errors.New("outcome unknown")

// preparePartition drives one partition's prepare, failing over through the
// partition's replicas until one acknowledges or the candidates are
// exhausted.
func (s *Server) preparePartition(out *prepareOutcome, prep wire.PrepareReq) {
	p := out.part
	preferred := topology.ServerID(s.cfg.Selector.TargetDC(s.self.DC, p), p)
	if done := s.prepareOn(out, prep, preferred); done {
		return
	}
	for _, dc := range s.cfg.Selector.Alternates(s.self.DC, p) {
		if done := s.prepareOn(out, prep, topology.ServerID(dc, p)); done {
			if out.ok {
				s.metrics.prepareFailovers.Add(1)
			}
			return
		}
	}
}

// prepareOn sends one prepare attempt to node, recording it in out. It
// reports true when the fan-out for this partition is settled — success, a
// non-retryable refusal, or a sole prepare whose outcome is unknown — and
// false when the next replica should be tried.
func (s *Server) prepareOn(out *prepareOutcome, prep wire.PrepareReq, node topology.NodeID) bool {
	var (
		resp wire.Message
		err  error
	)
	out.tried = append(out.tried, node)
	if node == s.self {
		resp = s.handlePrepare(prep)
	} else {
		resp, err = s.peer.CallTimeout(context.Background(), node, prep, s.cfg.CallTimeout)
		if prep.Sole && err != nil && mayHaveLanded(err) {
			out.err = fmt.Errorf("%w: sole prepare on %v: %w", errOutcomeUnknown, node, err)
			return true
		}
	}
	if err == nil {
		switch m := resp.(type) {
		case wire.PrepareResp:
			out.acked, out.ok, out.proposed = node, true, m.Proposed
			return true
		case wire.ErrorResp:
			err = m.Err()
		default:
			err = wire.ErrorResp{Msg: "unexpected prepare response"}.Err()
		}
	}
	out.err = err
	return !retryableOnReplica(err)
}

// mayHaveLanded reports whether a call that failed with err may still have
// been handled: the request was sent, and no answer says it was refused.
func mayHaveLanded(err error) bool {
	var re *wire.RemoteError
	return !errors.Is(err, transport.ErrNotSent) && !errors.As(err, &re)
}

// castAbort sends AbortTx for tx to every replica listed in the outcomes'
// tried sets; with skipAcked the acked cohorts — the ones committing on the
// success path — are spared. Aborting a replica that never saw the prepare
// only plants a tombstone; aborting one whose response was lost releases a
// pin on its version clock that nothing else would clear until the reaper
// runs.
func (s *Server) castAbort(tx wire.TxID, outcomes []prepareOutcome, skipAcked bool) {
	ab := wire.AbortTx{TxID: tx}
	seen := make(map[topology.NodeID]bool, len(outcomes))
	for _, out := range outcomes {
		for _, node := range out.tried {
			if seen[node] || (skipAcked && out.ok && node == out.acked) {
				continue
			}
			seen[node] = true
			if node == s.self {
				s.handleAbortTx(ab)
			} else {
				_ = s.peer.Cast(node, ab)
			}
		}
	}
}
