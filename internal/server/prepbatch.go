package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// prepareBatcher group-commits the coordinator's outbound 2PC prepare
// fan-out: concurrent PrepareReqs addressed to the same cohort coalesce into
// one PrepareBatch wire message. Coalescing is adaptive and timer-free —
// the first prepare to a quiet destination ships immediately as a plain
// PrepareReq, and while that call is in flight later prepares queue up and
// leave together when the pump goroutine takes its next turn. An uncontended
// prepare therefore pays zero added latency, while a loaded coordinator
// amortizes framing, syscalls and cohort wakeups over the whole batch, the
// way the replication pipeline (PR 1) amortizes ReplicateBatch.
type prepareBatcher struct {
	s *Server

	mu       sync.Mutex
	dests    map[topology.NodeID]*prepareDest
	stopping bool
}

// prepareBatchMax caps the prepares coalesced into one PrepareBatch; a longer
// queue leaves as several calls.
const prepareBatchMax = 32

// ErrServerStopped reports a prepare abandoned because its server shut down
// while the request was queued or waiting in the group-commit coalescer.
var ErrServerStopped = errors.New("server: stopped while preparing")

// prepareDest is one cohort's outbound queue.
type prepareDest struct {
	// pumping is true while a goroutine is draining this queue; the caller
	// that flips it spawns the pump.
	pumping bool
	queue   []*pendingPrepare
}

// pendingPrepare is one queued prepare and its reply channel (buffered, so
// the pump never blocks on a caller that gave up).
type pendingPrepare struct {
	req  wire.PrepareReq
	done chan prepareReply
}

type prepareReply struct {
	resp wire.Message
	err  error
}

func (b *prepareBatcher) init(s *Server) {
	b.s = s
	b.dests = make(map[topology.NodeID]*prepareDest)
}

// call sends one prepare to node through the coalescer and waits for its
// outcome.
func (b *prepareBatcher) call(node topology.NodeID, req wire.PrepareReq) (wire.Message, error) {
	s := b.s
	pp := &pendingPrepare{req: req, done: make(chan prepareReply, 1)}
	b.mu.Lock()
	if b.stopping {
		b.mu.Unlock()
		return nil, ErrServerStopped
	}
	d := b.dests[node]
	if d == nil {
		d = &prepareDest{}
		b.dests[node] = d
	}
	d.queue = append(d.queue, pp)
	spawnPump := !d.pumping
	if spawnPump {
		d.pumping = true
	}
	b.mu.Unlock()
	if spawnPump {
		s.spawn(func() { b.pump(node, d) })
	}
	select {
	case r := <-pp.done:
		return r.resp, r.err
	case <-s.stopped:
		return nil, ErrServerStopped
	}
}

// shutdown fails every queued prepare with ErrServerStopped and refuses new
// entries. Without the explicit drain, a pendingPrepare sitting in a
// destination queue when the server stops would depend on its caller
// selecting on s.stopped to ever be released — deterministically failing the
// queue keeps no waiter's fate implicit. Entries a pump already drained for
// sending are answered by their batch's send as usual.
func (b *prepareBatcher) shutdown() {
	b.mu.Lock()
	b.stopping = true
	var drained []*pendingPrepare
	for _, d := range b.dests {
		drained = append(drained, d.queue...)
		d.queue = nil
	}
	b.mu.Unlock()
	for _, pp := range drained {
		pp.done <- prepareReply{err: ErrServerStopped} // buffered; never blocks
	}
}

// pump drains one destination's queue and exits when it runs dry. Each turn
// takes the *entire* queue in one lock handoff and slices it into
// prepareBatchMax-sized wire calls locally — the pump used to re-acquire the
// shared batcher mutex once per send, so a loaded coordinator paid a
// lock-handoff (and its cache-line bounce against every concurrently queueing
// caller) per batch rather than per drain. prepPumpWakeups counts the
// handoffs; BenchmarkPrepareBatcher reports them per op.
func (b *prepareBatcher) pump(node topology.NodeID, d *prepareDest) {
	s := b.s
	for {
		b.mu.Lock()
		if len(d.queue) == 0 {
			d.pumping = false
			b.mu.Unlock()
			return
		}
		work := d.queue
		d.queue = nil
		b.mu.Unlock()
		s.metrics.prepPumpWakeups.Add(1)
		for len(work) > 0 {
			batch := work
			if len(batch) > prepareBatchMax {
				batch = batch[:prepareBatchMax]
			}
			work = work[len(batch):]
			b.send(node, batch)
		}
	}
}

// send performs one wire call for a batch and distributes the per-prepare
// outcomes. A single-entry batch travels as a plain PrepareReq, so a quiet
// coordinator's prepares cost exactly what a direct call would.
func (b *prepareBatcher) send(node topology.NodeID, batch []*pendingPrepare) {
	s := b.s
	cctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()

	if len(batch) == 1 {
		resp, err := s.peer.Call(cctx, node, batch[0].req)
		batch[0].done <- prepareReply{resp: resp, err: err}
		return
	}

	reqs := make([]wire.PrepareReq, len(batch))
	for i, pp := range batch {
		reqs[i] = pp.req
	}
	resp, err := s.peer.Call(cctx, node, wire.PrepareBatch{Reqs: reqs})
	switch m := resp.(type) {
	case wire.PrepareBatchResp:
		if len(m.Resps) != len(batch) {
			err = fmt.Errorf("server: prepare batch answered %d of %d prepares", len(m.Resps), len(batch))
			break
		}
		// Count the batch only now: a transport success whose response is
		// short, mismatched, or of an unexpected kind is a failed batch, and
		// counting it before this validation overstated the group-commit rate.
		s.metrics.prepBatches.Add(1)
		s.metrics.prepBatched.Add(uint64(len(batch)))
		for i, r := range m.Resps {
			var one wire.Message
			if r.Code == 0 {
				one = wire.PrepareResp{TxID: r.TxID, Proposed: r.Proposed}
			} else {
				one = wire.ErrorResp{Code: r.Code, Msg: r.Msg}
			}
			batch[i].done <- prepareReply{resp: one}
		}
		return
	case wire.ErrorResp:
		// A whole-batch refusal (e.g. shutting down) applies to every entry.
		for _, pp := range batch {
			pp.done <- prepareReply{resp: m}
		}
		return
	case nil:
		// fall through to the error fan-out below
	default:
		err = fmt.Errorf("server: unexpected prepare-batch response %v", resp.Kind())
	}
	if err == nil {
		err = errors.New("server: empty prepare-batch response")
	}
	for _, pp := range batch {
		pp.done <- prepareReply{err: err}
	}
}
