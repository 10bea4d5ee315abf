package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
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
// handleRead/handleCommit rather than in a round trip of its own. It is
// lock-free apart from one context-table shard visit: the snapshot comes from
// an atomic UST load, the transaction id from an atomic sequence.
func (s *Server) startTx(clientUST hlc.Timestamp) (wire.TxID, hlc.Timestamp) {
	var snapshot hlc.Timestamp
	if s.cfg.Mode == ModeBlocking {
		// BPR: snapshot is the max of the client's highest snapshot and the
		// coordinator's clock — fresher than the UST, but reads will block.
		snapshot = hlc.Max(clientUST, s.clock.Now())
	} else {
		// ust mn ← max{ust mn, ustc}: the client may have observed a fresher
		// stable snapshot on another coordinator. (In BPR the client value is
		// clock-derived and not evidence of universal stability.) Folding
		// before loading keeps the session monotonic: the snapshot handed
		// back is at least the client's own stable time.
		s.observeUST(clientUST)
		snapshot = s.ust.Load()
	}
	id := wire.NewTxID(s.self.DC, s.self.Partition(), s.txSeq.Add(1))
	now := time.Now()
	s.txCtx.put(id, txContext{snapshot: snapshot, started: now, lastActive: now})
	if s.cfg.Mode == ModeNonBlocking {
		// GC-watermark hazard: between the UST load above and the put, this
		// context was invisible to the stabilization aggregate, so a gossip
		// scan in that window reported an oldest-active snapshot above our
		// choice, and the watermark (Sold) it feeds could eventually overtake
		// the snapshot — letting GC trim versions this transaction needs. One
		// reload after the put closes the hazard for every in-flight round:
		// any Sold this server ever applies is bounded by its own UST at the
		// Sold's contributing scan, and such a scan either ran before this
		// reload (its UST ≤ the value read here) or after the put (it saw
		// the context, so its contribution ≤ our snapshot). Raising the
		// snapshot to the reloaded UST therefore dominates both cases. The
		// pre-shard code made the choice and the insert atomic under one
		// server-wide mutex; this reload buys the same safety without it.
		if ust := s.ust.Load(); ust > snapshot {
			snapshot = ust
			s.txCtx.put(id, txContext{snapshot: snapshot, started: now, lastActive: now})
		}
	}
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
	ctx, ok := s.txCtx.touchGet(id)
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
// merge entirely: one context-shard touch, one slice read, done. The
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
		s.txCtx.touch(id)
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
	s.txCtx.touch(id)
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
		s.txCtx.touch(id)
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
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	resp, err := s.peer.Call(ctx, target, req)
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
	// acked is the replica whose PrepareResp the coordinator holds; it is
	// the replica that must receive the CohortCommit or AbortTx decision.
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

// handleCommit implements Alg. 2 lines 17–29: the two-phase commit. The
// coordinator collects proposed prepare times from every partition touched by
// the write-set, picks the maximum as the commit time, and notifies cohorts
// and client. A prepare that fails on the preferred replica fails over to the
// partition's alternates; if no replica of some partition acknowledges, the
// transaction is aborted on every cohort a prepare was sent to.
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

	// Mark the 2PC in flight before any prepare can land anywhere: from this
	// moment until a decision is recorded, cohort status queries must be
	// answered "pending" — even if the transaction context is TTL-evicted
	// while a long failover chain grinds on.
	csh := s.twoPC.shard(id)
	csh.mu.Lock()
	csh.committing[id] = struct{}{}
	csh.mu.Unlock()

	byPartition := make(map[topology.PartitionID][]wire.KV)
	for _, kv := range req.Writes {
		p := s.cfg.Topology.PartitionOf(kv.Key)
		byPartition[p] = append(byPartition[p], kv)
	}

	// Prepare phase, in parallel across partitions, with per-partition
	// replica failover.
	outcomes := make([]prepareOutcome, 0, len(byPartition))
	for range byPartition {
		outcomes = append(outcomes, prepareOutcome{})
	}
	var wg sync.WaitGroup
	i := 0
	for p, kvs := range byPartition {
		wg.Add(1)
		outcomes[i].writes = kvs
		go func(out *prepareOutcome, p topology.PartitionID, kvs []wire.KV) {
			defer wg.Done()
			s.preparePartition(out, wire.PrepareReq{
				TxID: id, Snapshot: snapshot, HT: ht, Writes: kvs,
			}, p)
		}(&outcomes[i], p, kvs)
		i++
	}
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
		csh.mu.Lock()
		delete(csh.committing, id) // the tombstone above now answers queries
		csh.mu.Unlock()
		s.metrics.txAborted.Add(1)
		return wire.ErrorResp{Code: wire.CodeTxAborted, Msg: "commit aborted: " + firstErr.Error()}
	}

	// Commit phase: notify the acked cohorts (no ack needed) and answer the
	// client. Replicas that were tried but superseded by a failover get an
	// abort instead, so a prepare whose response (not request) was lost does
	// not linger.
	for _, out := range outcomes {
		cc := wire.CohortCommit{TxID: id, CommitTS: commitTS}
		if out.acked == s.self {
			s.handleCohortCommit(cc)
		} else if err := s.peer.Cast(out.acked, cc); err != nil {
			// Lossless FIFO links: when the cast is accepted it arrives after
			// the cohort's prepare insert, which happened before its
			// PrepareResp. When it is refused — the cohort crashed or its link
			// errored in the window since the prepare — the decision exists
			// only here, so hand it to an acknowledged retry loop; dropping it
			// would silently lose this partition's slice of the transaction.
			node, writes := out.acked, out.writes
			s.metrics.confirmStarted.Add(1)
			s.spawn(func() { s.confirmCommit(node, id, commitTS, writes) })
		}
	}
	s.castAbort(id, outcomes, true) // release non-acked attempts only

	acked := make([]topology.NodeID, 0, len(outcomes))
	for _, out := range outcomes {
		acked = append(acked, out.acked)
	}
	s.txCtx.delete(id)
	csh.mu.Lock()
	// Remember the decision (bounded; pruned with the tombstones) so a
	// cohort whose CohortCommit cast was lost recovers the commit through a
	// status query instead of reaping an acknowledged transaction. The
	// in-flight marker comes off only now that the decision is queryable.
	csh.decided[id] = decidedTx{ct: commitTS, at: time.Now(), acked: acked}
	delete(csh.committing, id)
	csh.mu.Unlock()
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
	sh := s.twoPC.shard(req.TxID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if d, ok := sh.decided[req.TxID]; ok {
		if nodeListed(d.acked, from) {
			return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusCommitted, CommitTS: d.ct}
		}
		return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusAborted}
	}
	if _, ok := sh.aborted[req.TxID]; ok {
		return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusAborted}
	}
	if s.decidingLocked(sh, req.TxID) {
		return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusPending}
	}
	return wire.TxStatusResp{TxID: req.TxID, Status: wire.TxStatusUnknown}
}

// preparePartition drives one partition's prepare, failing over through the
// partition's replicas until one acknowledges or the candidates are
// exhausted.
func (s *Server) preparePartition(out *prepareOutcome, prep wire.PrepareReq, p topology.PartitionID) {
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
// reports true when the fan-out for this partition is settled — success or a
// non-retryable refusal — and false when the next replica should be tried.
func (s *Server) prepareOn(out *prepareOutcome, prep wire.PrepareReq, node topology.NodeID) bool {
	var (
		resp wire.Message
		err  error
	)
	out.tried = append(out.tried, node)
	if node == s.self {
		resp = s.handlePrepare(prep)
	} else {
		// Remote prepares go through the group-commit coalescer: concurrent
		// prepares to the same cohort leave as one PrepareBatch message.
		resp, err = s.prepBatch.call(node, prep)
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

// confirmCommit re-delivers a commit decision whose CohortCommit cast was
// refused, as an acknowledged CommitRecover call retried with backoff. The
// loop runs until the cohort answers with a definitive fate, the server
// stops, or the abort-retention budget — the horizon past which the cohort's
// reaper may have acted and the decision memory is pruned — expires. The
// carried writes let even a cohort that crashed and restarted since preparing
// install the transaction.
func (s *Server) confirmCommit(node topology.NodeID, id wire.TxID, ct hlc.Timestamp, writes []wire.KV) {
	//lint:ignore paris/ctxdeadline local retry budget on the monotonic clock; never compared against protocol timestamps, so clock skew cannot affect it
	deadline := time.Now().Add(s.cfg.abortedRetention())
	backoff := s.cfg.ApplyInterval
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	msg := wire.CommitRecover{TxID: id, CommitTS: ct, Writes: writes}
	for {
		select {
		case <-s.stopped:
			return
		case <-time.After(backoff):
		}
		cctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
		watch := make(chan struct{})
		go func() { // release the call promptly if the server stops mid-retry
			select {
			case <-s.stopped:
				cancel()
			case <-watch:
			}
		}()
		resp, err := s.peer.Call(cctx, node, msg)
		close(watch)
		cancel()
		if err == nil {
			if st, ok := resp.(wire.TxStatusResp); ok && st.Status != wire.TxStatusPending {
				// Committed: the slice landed (or already had). Aborted: the
				// cohort reaped the id past its hard deadline while we were
				// unreachable — re-installing is no longer safe, give up.
				s.metrics.confirmDelivered.Add(1)
				return
			}
		}
		if s.isStopped() || time.Now().After(deadline) {
			return
		}
		backoff *= 2
		if backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
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
