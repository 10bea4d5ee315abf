package server

import (
	"math"
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// inquiries is the table of questions the server asks a peer until it gets an
// answer, §III-C's background cleanup: a commit decision re-sent as
// CommitRecover after its CohortCommit cast was refused (confirm), and the
// reaper's TxStatusReq about an orphaned prepare (askFate). The round steps
// it, so no goroutine waits on a question: each attempt is a call sent without
// waiting (Peer.Ask) whose reply later rounds poll, paced in round labels.
// Only the round touches open; confirm, called from request goroutines,
// queues its entry in the inbox for the next step.
type inquiries struct {
	s     *Server
	mu    sync.Mutex
	inbox []*inquiry // guarded by mu
	open  map[inquiryKey]*inquiry
}

type inquiryKey struct {
	tx wire.TxID
	to topology.NodeID
}

// inquiry is one open question to key.to. The next attempt is due at label
// next; each attempt doubles every, up to maxEvery, and schedules the next
// that many rounds later. The question is dropped unanswered at label giveUp.
// id and reply are the outstanding attempt, if reply is not nil. settled is
// the completion: each round it is handed the reply that arrived, or nil, and
// reports whether the question is closed, answered or moot.
type inquiry struct {
	key                           inquiryKey
	msg                           wire.Message
	next, every, maxEvery, giveUp int64
	id                            uint64
	reply                         <-chan wire.Message
	settled                       func(resp wire.Message) bool
}

func (q *inquiries) init(s *Server) {
	q.s, q.open = s, make(map[inquiryKey]*inquiry)
}

// step is the table's part of the round labelled now. It opens the queued
// entries, hands each entry its reply, drops the settled ones and those at
// their give-up label, and sends a new attempt for each one that is due,
// withdrawing the stale one.
func (q *inquiries) step(now int64) {
	q.mu.Lock()
	inbox := q.inbox
	q.inbox = nil
	q.mu.Unlock()
	for _, e := range inbox {
		q.open[e.key] = e
	}
	peer := q.s.peer
	for key, e := range q.open {
		var resp wire.Message
		select {
		case resp = <-e.reply: // nil if Peer.Close closed it
			e.reply = nil
		default:
		}
		// Forget is a no-op for an attempt that was answered or never sent.
		if e.settled(resp) || now >= e.giveUp {
			peer.Forget(e.id)
			delete(q.open, key)
		} else if now >= e.next {
			peer.Forget(e.id)
			// A refused send leaves no attempt; the next one is due all the same.
			e.id, e.reply, _ = peer.Ask(key.to, e.msg)
			e.every = min(2*e.every, e.maxEvery)
			e.next = now + e.every
		}
	}
}

// confirm opens a commit confirmation: ct, the decision for id whose
// CohortCommit cast to node was refused, goes to node as CommitRecover from
// the next round on, 1, 2, 4, … rounds apart up to ⌈100 ms/ΔR⌉, until node
// answers with a definite fate or the abort-retention horizon passes, beyond
// which the cohort's reaper may have acted and the decision memory is pruned.
// The writes let even a cohort restarted since preparing install the slice.
func (q *inquiries) confirm(node topology.NodeID, id wire.TxID, ct hlc.Timestamp, writes []wire.KV) {
	s := q.s
	now := s.label()
	e := &inquiry{
		key:  inquiryKey{id, node},
		msg:  wire.CommitRecover{TxID: id, CommitTS: ct, Writes: writes},
		next: now + 1, every: 1, maxEvery: s.cfg.rounds(100 * time.Millisecond),
		giveUp: now + s.cfg.rounds(s.cfg.abortedRetention()),
		settled: func(resp wire.Message) bool {
			// Committed: the slice landed (or already had). Aborted: the
			// cohort reaped the id past its hard deadline meanwhile, and
			// re-installing is no longer safe.
			st, ok := resp.(wire.TxStatusResp)
			if !ok || st.Status == wire.TxStatusPending {
				return false
			}
			s.metrics.confirmDelivered.Add(1)
			return true
		},
	}
	s.metrics.confirmStarted.Add(1)
	q.mu.Lock()
	q.inbox = append(q.inbox, e)
	q.mu.Unlock()
}

// askFate opens, unless it is open, the reaper's query about the orphaned
// prepare id: a TxStatusReq to its coordinator in the round labelled now and
// every `every` rounds after, until it is answered or the prepared entry is
// gone (committed, aborted or hard-reaped). Round only.
func (q *inquiries) askFate(id wire.TxID, now, every int64) {
	key := inquiryKey{id, id.Coordinator()}
	if _, ok := q.open[key]; ok {
		return
	}
	s, t := q.s, &q.s.twoPC
	q.open[key] = &inquiry{
		key: key, msg: wire.TxStatusReq{TxID: id},
		next: now, every: every, maxEvery: every, giveUp: math.MaxInt64,
		settled: func(resp wire.Message) bool {
			t.mu.Lock()
			defer t.mu.Unlock()
			p, present := t.prepared[id]
			st, answered := resp.(wire.TxStatusResp)
			switch {
			case !present:
				return true
			case !answered || st.Status == wire.TxStatusPending:
				// No answer (the hard deadline bounds the wait), or the
				// decision is still in flight: ask again next sweep.
				return false
			case st.Status == wire.TxStatusCommitted:
				s.promoteLocked(p, st.CommitTS)
				s.metrics.commitsRecovered.Add(1)
			default: // aborted or unknown
				s.reapLocked(id, s.label())
				s.metrics.txReaped.Add(1)
			}
			return true
		},
	}
}
