// Package wire defines the PaRiS message vocabulary — every request, reply
// and one-way notification exchanged by Algorithms 1–4 of the paper, plus the
// stabilization and garbage-collection gossip — and a compact binary codec
// used by the TCP transport. The in-memory transport passes these values
// directly (no serialization), so both transports share one vocabulary.
package wire

import (
	"fmt"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
)

// TxID uniquely identifies a transaction. It packs the coordinator's DC (high
// 8 bits), the coordinator's partition (next 16 bits) and a per-coordinator
// sequence number (low 40 bits). Besides uniqueness, TxID participates in the
// total order used by last-writer-wins conflict resolution (§II-B: ties on
// timestamp are settled by transaction id then source DC).
type TxID uint64

// NewTxID builds a TxID for the seq-th transaction coordinated by partition p
// of data center dc.
func NewTxID(dc topology.DCID, p topology.PartitionID, seq uint64) TxID {
	return TxID(uint64(uint8(dc))<<56 | uint64(uint16(p))<<40 | seq&(1<<40-1))
}

// String renders the TxID as "dc/partition/seq".
func (id TxID) String() string {
	return fmt.Sprintf("%d/%d/%d", uint64(id)>>56, uint64(id)>>40&0xffff, uint64(id)&(1<<40-1))
}

// DC returns the data center of the coordinator that assigned the id.
func (id TxID) DC() topology.DCID { return topology.DCID(uint64(id) >> 56) }

// Partition returns the partition of the coordinator that assigned the id.
func (id TxID) Partition() topology.PartitionID {
	return topology.PartitionID(uint64(id) >> 40 & 0xffff)
}

// Coordinator returns the node that coordinates (or coordinated) the
// transaction; the id embeds it so any cohort can ask about the
// transaction's fate without extra routing state.
func (id TxID) Coordinator() topology.NodeID {
	return topology.ServerID(id.DC(), id.Partition())
}

// KV is a key-value pair in a transaction's write-set.
type KV struct {
	Key   string
	Value []byte
}

// Item is a stored key version: the tuple ⟨k, v, ut, idT , sr⟩ of §IV-A.
type Item struct {
	Key   string
	Value []byte
	// UT is the update (commit) timestamp that places the version in a
	// snapshot.
	UT hlc.Timestamp
	// TxID identifies the transaction that created the version.
	TxID TxID
	// SrcDC is the data center where the version was created.
	SrcDC topology.DCID
}

// Less orders two versions of the same key by (UT, TxID, SrcDC) — the total
// order PaRiS uses for last-writer-wins (§IV-B Read).
func (it Item) Less(other Item) bool {
	if it.UT != other.UT {
		return it.UT < other.UT
	}
	if it.TxID != other.TxID {
		return it.TxID < other.TxID
	}
	return it.SrcDC < other.SrcDC
}

// Kind enumerates message types. Values are part of the wire format.
type Kind uint8

const (
	// KindStartTxReq begins a transaction (Alg. 1 line 2 / Alg. 2 line 1).
	KindStartTxReq Kind = iota + 1
	// KindStartTxResp returns the transaction id and snapshot.
	KindStartTxResp
	// KindReadReq asks the coordinator to read keys (Alg. 1 line 15).
	KindReadReq
	// KindReadResp returns the items visible in the snapshot.
	KindReadResp
	// KindCommitReq asks the coordinator to commit (Alg. 1 line 27).
	KindCommitReq
	// KindCommitResp returns the commit timestamp.
	KindCommitResp
	// KindFinishTx releases coordinator state for a read-only transaction.
	KindFinishTx
	// KindReadSliceReq reads keys on one partition (Alg. 2 line 12).
	KindReadSliceReq
	// KindReadSliceResp returns the per-partition items (Alg. 3 line 8).
	KindReadSliceResp
	// KindPrepareReq is the 2PC prepare (Alg. 2 line 23).
	KindPrepareReq
	// KindPrepareResp carries the proposed prepare time (Alg. 3 line 14).
	KindPrepareResp
	// KindCohortCommit is the 2PC commit notification (Alg. 2 line 27).
	KindCohortCommit
	// KindReplicate propagates applied transactions to peer replicas
	// (Alg. 4 line 15).
	KindReplicate
	// KindHeartbeat advances a peer's version vector in absence of updates
	// (Alg. 4 line 21).
	KindHeartbeat
	// KindGSTUp aggregates version-vector minima up the intra-DC tree.
	KindGSTUp
	// KindGSTRoot exchanges aggregated vectors between DC roots.
	KindGSTRoot
	// KindUSTDown propagates the computed UST (and GC watermark) down the
	// intra-DC tree.
	KindUSTDown
	// KindError reports a server-side failure to a caller.
	KindError
	// KindReplicateBatch coalesces one ΔR round of replication traffic —
	// every commit-timestamp group plus the round's heartbeat — into a single
	// message per destination replica.
	KindReplicateBatch
	// KindAbortTx releases a cohort's prepared state when the coordinator
	// abandons a two-phase commit whose prepare phase partially failed.
	KindAbortTx
	// KindTxStatusReq asks a coordinator for a transaction's fate; the
	// prepared-transaction reaper sends it before aborting an orphan, so a
	// commit whose notification was lost is recovered instead of dropped.
	KindTxStatusReq
	// KindTxStatusResp answers with the decision (or its absence).
	KindTxStatusResp
	// KindPrepareBatch coalesces several concurrent 2PC prepares from one
	// coordinator to one cohort into a single wire message (group commit for
	// the prepare fan-out, amortizing per-message framing like
	// KindReplicateBatch does for replication).
	KindPrepareBatch
	// KindPrepareBatchResp answers every prepare of a batch in one message.
	KindPrepareBatchResp
	// KindCommitRecover re-delivers a commit decision as a request/response
	// call when the fire-and-forget CohortCommit cast fails; it carries the
	// cohort's writes so even a cohort that restarted since preparing can
	// install the transaction.
	KindCommitRecover
	// KindReplSyncReq asks a peer replica to repair the replication stream
	// from its store after the receiver detected a sequence gap or an epoch
	// change.
	KindReplSyncReq
	// KindReplSyncResp carries the repair: every store version above the
	// requested watermark, plus the stream position at which normal
	// sequenced delivery resumes.
	KindReplSyncResp
	// KindReplStatus is the degraded-mode summary a flow-controlled sender
	// emits instead of full ΔR rounds while its send queue for a peer is
	// over the high-water mark. It carries no data and the receiver must
	// not advance its version vector from it.
	KindReplStatus
	// KindHello is the per-connection codec negotiation: each side of a TCP
	// connection advertises the newest codec version it speaks before any
	// other traffic. A sender uses codec v2 toward a peer only after the
	// peer's hello arrives; a peer that never says hello gets v1 forever.
	// The hello itself is always encoded with codec v1.
	KindHello
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{
		KindStartTxReq:       "StartTxReq",
		KindStartTxResp:      "StartTxResp",
		KindReadReq:          "ReadReq",
		KindReadResp:         "ReadResp",
		KindCommitReq:        "CommitReq",
		KindCommitResp:       "CommitResp",
		KindFinishTx:         "FinishTx",
		KindReadSliceReq:     "ReadSliceReq",
		KindReadSliceResp:    "ReadSliceResp",
		KindPrepareReq:       "PrepareReq",
		KindPrepareResp:      "PrepareResp",
		KindCohortCommit:     "CohortCommit",
		KindReplicate:        "Replicate",
		KindHeartbeat:        "Heartbeat",
		KindGSTUp:            "GSTUp",
		KindGSTRoot:          "GSTRoot",
		KindUSTDown:          "USTDown",
		KindError:            "Error",
		KindReplicateBatch:   "ReplicateBatch",
		KindAbortTx:          "AbortTx",
		KindTxStatusReq:      "TxStatusReq",
		KindTxStatusResp:     "TxStatusResp",
		KindPrepareBatch:     "PrepareBatch",
		KindPrepareBatchResp: "PrepareBatchResp",
		KindCommitRecover:    "CommitRecover",
		KindReplSyncReq:      "ReplSyncReq",
		KindReplSyncResp:     "ReplSyncResp",
		KindReplStatus:       "ReplStatus",
		KindHello:            "Hello",
	}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is implemented by every payload type.
type Message interface {
	Kind() Kind
}

// StartTxReq starts a transaction on its own; ClientUST is the freshest
// stable snapshot the client has observed (ustc), which enforces session
// monotonicity. Clients no longer send it — a transaction starts with its
// first ReadReq or CommitReq — but servers still answer it for tools that
// drive a coordinator directly.
type StartTxReq struct {
	ClientUST hlc.Timestamp
}

// Kind implements Message.
func (StartTxReq) Kind() Kind { return KindStartTxReq }

// StartTxResp returns the new transaction's id and its snapshot timestamp.
type StartTxResp struct {
	TxID     TxID
	Snapshot hlc.Timestamp
}

// Kind implements Message.
func (StartTxResp) Kind() Kind { return KindStartTxResp }

// ReadReq asks the coordinator to read Keys within transaction TxID. A zero
// TxID makes it the transaction's first operation: the coordinator starts the
// transaction with ClientUST (the role StartTxReq.ClientUST plays) before
// serving the read. ClientUST is ignored otherwise.
//
// Cached lists keys the client's write cache holds, which it may consult only
// under a known snapshot — and on a first operation the snapshot is fixed by
// this very request. The coordinator reads exactly those whose cached version
// the snapshot has passed (UT ≤ snapshot: the client will prune that entry on
// seeing the snapshot, so the store's answer is the one it needs) and returns
// them among Items; the others stay the cache's to answer.
type ReadReq struct {
	TxID      TxID
	ClientUST hlc.Timestamp
	Keys      []string
	Cached    []CachedKey
}

// CachedKey is one ReadReq.Cached entry: a key and the update time of the
// version the client's write cache holds for it.
type CachedKey struct {
	Key string
	UT  hlc.Timestamp
}

// Kind implements Message.
func (ReadReq) Kind() Kind { return KindReadReq }

// ReadResp returns the versions visible to the transaction, with the
// transaction's id and snapshot (news to the client when the request started
// the transaction). Keys that have never been written are absent from Items.
type ReadResp struct {
	TxID     TxID
	Snapshot hlc.Timestamp
	Items    []Item
}

// Kind implements Message.
func (ReadResp) Kind() Kind { return KindReadResp }

// CommitReq finalizes a transaction with a non-empty write-set. HWT is the
// client's highest prior commit timestamp (hwtc), threaded through 2PC so
// commit timestamps reflect session order. A zero TxID starts the transaction
// first, exactly as in ReadReq: a transaction that only writes is one round.
type CommitReq struct {
	TxID      TxID
	ClientUST hlc.Timestamp
	HWT       hlc.Timestamp
	Writes    []KV
}

// Kind implements Message.
func (CommitReq) Kind() Kind { return KindCommitReq }

// CommitResp returns the transaction's commit timestamp, with its id and
// snapshot as in ReadResp.
type CommitResp struct {
	TxID     TxID
	Snapshot hlc.Timestamp
	CommitTS hlc.Timestamp
}

// Kind implements Message.
func (CommitResp) Kind() Kind { return KindCommitResp }

// FinishTx tells the coordinator to discard the context of a transaction
// that committed no writes. (The paper cleans abandoned contexts with a
// timeout; explicit cleanup is the common case.)
type FinishTx struct {
	TxID TxID
}

// Kind implements Message.
func (FinishTx) Kind() Kind { return KindFinishTx }

// ReadSliceReq reads Keys on a single partition within snapshot Snapshot.
type ReadSliceReq struct {
	Keys     []string
	Snapshot hlc.Timestamp
}

// Kind implements Message.
func (ReadSliceReq) Kind() Kind { return KindReadSliceReq }

// ReadSliceResp carries the freshest visible version of each present key.
type ReadSliceResp struct {
	Items []Item
}

// Kind implements Message.
func (ReadSliceResp) Kind() Kind { return KindReadSliceResp }

// PrepareReq is the 2PC prepare message for the writes landing on one
// partition. Snapshot is the transaction's snapshot time, HT the maximum
// timestamp the client has observed (max of snapshot and hwtc).
type PrepareReq struct {
	TxID     TxID
	Snapshot hlc.Timestamp
	HT       hlc.Timestamp
	Writes   []KV
}

// Kind implements Message.
func (PrepareReq) Kind() Kind { return KindPrepareReq }

// PrepareResp returns the cohort's proposed commit time.
type PrepareResp struct {
	TxID     TxID
	Proposed hlc.Timestamp
}

// Kind implements Message.
func (PrepareResp) Kind() Kind { return KindPrepareResp }

// PrepareBatch carries several independent 2PC prepares from one coordinator
// to one cohort in a single wire message. The cohort processes each request
// exactly as it would a standalone PrepareReq and answers all of them with
// one PrepareBatchResp in the same order. Coordinators coalesce prepares
// adaptively: while a batch to a cohort is in flight, newly arriving
// prepares for the same cohort queue up and ship together when the response
// frees the link — group commit with no timer and no added latency for an
// uncontended prepare.
type PrepareBatch struct {
	Reqs []PrepareReq
}

// Kind implements Message.
func (PrepareBatch) Kind() Kind { return KindPrepareBatch }

// PrepareResult is one transaction's outcome inside a PrepareBatchResp.
// Code == 0 means the prepare was accepted and Proposed carries the cohort's
// proposal; a non-zero Code carries the refusal (the same codes an ErrorResp
// would use for a standalone prepare).
type PrepareResult struct {
	TxID     TxID
	Proposed hlc.Timestamp
	Code     uint16
	Msg      string
}

// PrepareBatchResp answers a PrepareBatch, one result per carried request,
// in request order.
type PrepareBatchResp struct {
	Resps []PrepareResult
}

// Kind implements Message.
func (PrepareBatchResp) Kind() Kind { return KindPrepareBatchResp }

// CohortCommit finalizes a prepared transaction at the chosen commit time.
// It needs no reply: the coordinator answers the client as soon as all
// cohorts are notified (Alg. 2 lines 27–29).
type CohortCommit struct {
	TxID     TxID
	CommitTS hlc.Timestamp
}

// Kind implements Message.
func (CohortCommit) Kind() Kind { return KindCohortCommit }

// CommitRecover re-delivers a commit decision, with the transaction's writes
// for the receiving cohort, as a request/response call. The coordinator falls
// back to it when the CohortCommit cast errors (cohort crashed, restarted, or
// its link refused the send): unlike the cast, the call is acknowledged and
// retried, so a decided commit cannot be silently lost in a crash window. A
// cohort that still holds the prepared entry promotes it exactly as a
// CohortCommit would and ignores Writes; a cohort that restarted since
// preparing (no prepared entry, no tombstone, no applied record) installs the
// writes directly. The cohort answers with a TxStatusResp confirming the fate.
type CommitRecover struct {
	TxID     TxID
	CommitTS hlc.Timestamp
	Writes   []KV
}

// Kind implements Message.
func (CommitRecover) Kind() Kind { return KindCommitRecover }

// ReplSyncReq asks the peer replica serving partition traffic for the
// requester's DC to repair the replication stream. FromTS is the requester's
// current version-vector entry for the sender's DC — the watermark below
// which it has everything. Cast over the (FIFO) reverse link; the sender
// answers within its next apply round.
type ReplSyncReq struct {
	// ReqDC identifies the requesting replica (the sender derives the node
	// as its peer for the shared partition in that DC).
	ReqDC  topology.DCID
	FromTS hlc.Timestamp
}

// Kind implements Message.
func (ReplSyncReq) Kind() Kind { return KindReplSyncReq }

// ReplSyncResp repairs a broken replication stream from the sender's store:
// Items is every version the sender has installed with timestamp in
// (FromTS, UpTo]. Having applied them, the receiver may advance its
// version-vector entry for SrcDC to UpTo and resume sequenced delivery at
// (Epoch, NextSeq) — the sender emits the response inside its apply round,
// immediately before the chunk carrying NextSeq, so FIFO delivery leaves no
// window for a second gap.
type ReplSyncResp struct {
	SrcDC   topology.DCID
	Epoch   uint64
	NextSeq uint64
	UpTo    hlc.Timestamp
	Items   []Item
}

// Kind implements Message.
func (ReplSyncResp) Kind() Kind { return KindReplSyncResp }

// ReplStatus is the heartbeat-only summary a sender degrades to when its
// flow-controlled queue for a destination crosses the high-water mark:
// rather than queueing more ΔR rounds it sheds them (the store remains the
// durable record) and periodically casts this tiny status instead. UpTo is
// the newest shed round's upper bound — informational only; the receiver
// MUST NOT advance its version vector from it, because the data below it
// was never delivered. The receiver's vv entry for SrcDC simply stops
// advancing (UST-safe) until the sender resumes and the sequence-gap
// repair path (ReplSyncReq/ReplSyncResp) fills the hole.
type ReplStatus struct {
	SrcDC topology.DCID
	// Epoch is the sender's current stream epoch.
	Epoch uint64
	// NextSeq is the sequence number the sender will stamp on its next
	// fresh chunk after it resumes. A receiver whose cursor expects an
	// earlier seq knows rounds were shed and can pre-request repair while
	// the sender is still degraded, instead of waiting to observe the gap
	// after the stream resumes. Zero means "not reported" (older sender).
	NextSeq uint64
	// UpTo is the newest round bound the sender has shed for this peer.
	UpTo hlc.Timestamp
	// UST and Sold piggyback the sender's universally stable time and GC
	// watermark on the status cast (see ReplicateBatch.UST); zero means
	// "no information".
	UST  hlc.Timestamp
	Sold hlc.Timestamp
	// QueuedBytes is the sender's current queue depth for this peer,
	// exported for observability on the receiving side.
	QueuedBytes uint64
}

// Kind implements Message.
func (ReplStatus) Kind() Kind { return KindReplStatus }

// AbortTx releases a prepared transaction on a cohort. The coordinator casts
// it to every cohort it sent a prepare to when the prepare phase fails on any
// of them (peer down, link fault, refusal), so the surviving cohorts' Prepared
// queues drain and the local version clock — whose upper bound is
// min{prepared.pt} − 1 — can advance again. Like CohortCommit it needs no
// reply; a cohort that never saw the prepare treats the abort as a tombstone.
type AbortTx struct {
	TxID TxID
}

// Kind implements Message.
func (AbortTx) Kind() Kind { return KindAbortTx }

// TxStatus is a coordinator's answer about a transaction's fate.
type TxStatus uint8

const (
	// TxStatusPending: the coordinator still holds the transaction's context;
	// a decision is on the way — do not reap.
	TxStatusPending TxStatus = iota + 1
	// TxStatusCommitted: the transaction committed at TxStatusResp.CommitTS.
	TxStatusCommitted
	// TxStatusAborted: the transaction was aborted.
	TxStatusAborted
	// TxStatusUnknown: the coordinator has no record of the transaction
	// (never started here, restarted since, or decided longer ago than its
	// bounded decision memory). Safe to abort: a commit decision is
	// remembered far longer than any notification can stay in flight.
	TxStatusUnknown
)

// TxStatusReq asks the transaction's coordinator for its fate. Sent by the
// prepared-transaction reaper before aborting an orphan whose commit or
// abort notification may merely have been lost in transit.
type TxStatusReq struct {
	TxID TxID
}

// Kind implements Message.
func (TxStatusReq) Kind() Kind { return KindTxStatusReq }

// TxStatusResp carries the decision; CommitTS is set when Status is
// TxStatusCommitted.
type TxStatusResp struct {
	TxID     TxID
	Status   TxStatus
	CommitTS hlc.Timestamp
}

// Kind implements Message.
func (TxStatusResp) Kind() Kind { return KindTxStatusResp }

// TxUpdates is one transaction's writes for a partition, as shipped by the
// replication protocol.
type TxUpdates struct {
	TxID   TxID
	SrcDC  topology.DCID
	Writes []KV
}

// Replicate ships the transactions that committed at time CT on the sender's
// replica to a peer replica of the same partition. All carried transactions
// share the commit timestamp CT (Alg. 4 groups by ct before sending).
type Replicate struct {
	SrcDC topology.DCID
	CT    hlc.Timestamp
	Txns  []TxUpdates
}

// Kind implements Message.
func (Replicate) Kind() Kind { return KindReplicate }

// ReplicateGroup is one commit-timestamp group inside a ReplicateBatch: the
// transactions that committed at CT on the sender's replica.
type ReplicateGroup struct {
	CT   hlc.Timestamp
	Txns []TxUpdates
}

// ReplicateBatch ships one ΔR round's replication traffic to one peer replica
// in a single message: the commit-timestamp groups of Alg. 4 line 11, ordered
// by ascending CT, followed by UpTo — the round's upper bound ub, at or above
// every carried CT. Because the sender applied everything with ct ≤ ub before
// sending, the receiver may advance its version-vector entry for SrcDC all
// the way to UpTo; a batch with no groups is exactly a heartbeat (Alg. 4
// line 21), so idle rounds and busy rounds share one message shape.
//
// When a round is split into several chunks (BatchMaxItems/BatchMaxBytes),
// every chunk but the last carries UpTo equal to its final group's CT, which
// is safe for the same reason: FIFO links deliver the remainder of the round
// before any later timestamp.
//
// Epoch and Seq make the stream loss-evident: Seq increments by one per
// chunk per destination within a sender incarnation, and Epoch changes when
// the sender restarts (its counters reset with its volatile state). A
// receiver seeing anything but the next expected (Epoch, Seq) knows chunks
// were lost — to a link fault or a crash window — and must not advance its
// version vector from this stream again until a ReplSyncResp repairs it;
// advancing past a hole would let the UST certify snapshots with missing
// writes, silently breaking causal reads forever.
type ReplicateBatch struct {
	SrcDC  topology.DCID
	Epoch  uint64
	Seq    uint64
	Groups []ReplicateGroup
	UpTo   hlc.Timestamp
	// UST and Sold piggyback the sender's universally stable time and GC
	// watermark on replication traffic that is flowing anyway, so a root
	// that has gone idle may withhold its dedicated down-tree pushes.
	// Any node may adopt them by monotonic max: a published UST/Sold pair
	// was certified by a complete root round, so it is a valid lower bound
	// everywhere. Zero means "no information" (sender predates piggyback
	// or has not computed a UST yet).
	UST  hlc.Timestamp
	Sold hlc.Timestamp
	// Round labels the batch for the receiver's stabilization push: the index
	// of the wall-clock ΔR boundary the sender's apply round was armed for
	// (the newest one when a flow pump coalesces rounds). Every server labels
	// a boundary the same way, so the receiver can tell this round's batch
	// from a late one of the previous round. It carries latency, not safety;
	// zero means unlabelled and refreshes nothing.
	Round uint64
}

// Kind implements Message.
func (ReplicateBatch) Kind() Kind { return KindReplicateBatch }

// Items returns the total number of write items carried by the batch.
func (b ReplicateBatch) Items() int {
	n := 0
	for _, g := range b.Groups {
		for _, tx := range g.Txns {
			n += len(tx.Writes)
		}
	}
	return n
}

// Heartbeat advances the receiver's version-vector entry for the sender's DC
// when the sender has had no transactions to replicate.
type Heartbeat struct {
	SrcDC topology.DCID
	TS    hlc.Timestamp
}

// Kind implements Message.
func (Heartbeat) Kind() Kind { return KindHeartbeat }

// GSTUp flows from a child to its parent in the intra-DC aggregation tree,
// once per stabilization round. Min is the minimum, over the sender's
// subtree, of every version-vector entry a server there tracks — the only
// thing the UST computation ever reads, so no per-DC vector travels. Oldest
// is the minimum active-snapshot watermark used for garbage collection.
// Receivers always store what arrives: a restarted sender legitimately
// reports lower values, and the aggregation is safe against duplicates,
// reordering and loss (the worst outcome is a UST that stands still).
//
// Active propagates data activity through the stabilization plane: it is set
// while the sender has recently committed or applied remote data, or heard an
// Active GSTUp from its own subtree. A receiver that hears an Active message
// keeps pushing every round; without one it falls back to one push per
// Config.GossipIdleMax.
type GSTUp struct {
	Active bool
	Min    hlc.Timestamp
	Oldest hlc.Timestamp
	// Round is the round the aggregate is complete through: the minimum
	// round label over the sender's inputs (its own tick, its peer replicas'
	// last ReplicateBatch, its children's last GSTUp). The parent decides
	// readiness by these labels, never by arrival order.
	Round uint64
}

// Kind implements Message.
func (GSTUp) Kind() Kind { return KindGSTUp }

// GSTRoot carries one DC root's aggregate — the minimum over every server of
// data center DC — to the roots of the other data centers. Active behaves as
// on GSTUp.
type GSTRoot struct {
	DC     topology.DCID
	Active bool
	Min    hlc.Timestamp
	Oldest hlc.Timestamp
	// Round is the round the DC aggregate is complete through, as on GSTUp;
	// a root recomputes the UST once every participating DC's aggregate has
	// passed the round it last computed for.
	Round uint64
}

// Kind implements Message.
func (GSTRoot) Kind() Kind { return KindGSTRoot }

// USTDown propagates the universal stable time and the garbage-collection
// watermark from the DC root down the tree to every partition. Active
// behaves as on GSTUp: a root that has seen recent activity (its own or a
// remote root's) keeps its whole subtree pushing every round.
type USTDown struct {
	UST    hlc.Timestamp
	Sold   hlc.Timestamp
	Active bool
}

// Kind implements Message.
func (USTDown) Kind() Kind { return KindUSTDown }

// Hello advertises the newest codec version the sender speaks on a TCP
// connection. It is the first frame each side sends after a connection
// opens, always encoded with codec v1, and is consumed by the transport —
// it is never delivered to the protocol layer. See internal/transport for
// the negotiation rule.
type Hello struct {
	MaxVersion uint8
}

// Kind implements Message.
func (Hello) Kind() Kind { return KindHello }

// ErrorResp reports a request failure (e.g. server shutting down, unknown
// transaction). Callers convert it into an error.
type ErrorResp struct {
	Code uint16
	Msg  string
}

// Kind implements Message.
func (ErrorResp) Kind() Kind { return KindError }

// Error codes carried by ErrorResp.
const (
	// CodeShuttingDown: the server is stopping and rejected the request.
	CodeShuttingDown uint16 = iota + 1
	// CodeUnknownTx: the coordinator has no context for the transaction.
	CodeUnknownTx
	// CodeUnavailable: no reachable replica can serve the operation.
	CodeUnavailable
	// CodeTxAborted: the transaction was aborted (2PC prepare failure) or its
	// prepared state was reaped after the coordinator went silent.
	CodeTxAborted
)

// RemoteError is the error form of an ErrorResp, carrying the wire code so
// callers can distinguish retryable infrastructure failures (unavailable,
// shutting down) from protocol refusals (unknown transaction, aborted).
type RemoteError struct {
	Code uint16
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}

// Err converts an ErrorResp into a Go error.
func (e ErrorResp) Err() error {
	return &RemoteError{Code: e.Code, Msg: e.Msg}
}

// Compile-time interface compliance checks.
var (
	_ Message = StartTxReq{}
	_ Message = StartTxResp{}
	_ Message = ReadReq{}
	_ Message = ReadResp{}
	_ Message = CommitReq{}
	_ Message = CommitResp{}
	_ Message = FinishTx{}
	_ Message = ReadSliceReq{}
	_ Message = ReadSliceResp{}
	_ Message = PrepareReq{}
	_ Message = PrepareResp{}
	_ Message = PrepareBatch{}
	_ Message = PrepareBatchResp{}
	_ Message = CohortCommit{}
	_ Message = CommitRecover{}
	_ Message = ReplSyncReq{}
	_ Message = ReplSyncResp{}
	_ Message = ReplStatus{}
	_ Message = AbortTx{}
	_ Message = TxStatusReq{}
	_ Message = TxStatusResp{}
	_ Message = Replicate{}
	_ Message = ReplicateBatch{}
	_ Message = Heartbeat{}
	_ Message = GSTUp{}
	_ Message = GSTRoot{}
	_ Message = USTDown{}
	_ Message = Hello{}
	_ Message = ErrorResp{}
)
