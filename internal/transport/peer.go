package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// RequestHandler is the application-side consumer of a Peer's inbound
// traffic. HandleRequest must arrange for reply to be called exactly once but
// may do so from any goroutine at any later time — this is what lets the BPR
// baseline block a read server-side without stalling the link. HandleCast
// runs inline on the delivery goroutine and must be quick.
type RequestHandler interface {
	HandleRequest(from topology.NodeID, req wire.Message, reply func(wire.Message))
	HandleCast(from topology.NodeID, msg wire.Message)
}

// Peer wraps an Endpoint with request/response bookkeeping. It implements
// Handler and must be registered as the node's inbound handler.
type Peer struct {
	self    topology.NodeID
	handler RequestHandler

	mu      sync.Mutex
	ep      Endpoint
	nextID  uint64
	pending map[uint64]chan wire.Message
	// callsFailed refuses calls (FailCalls ran), closed casts as well.
	callsFailed bool
	closed      bool
}

// NewPeer creates the Peer for node self, dispatching inbound requests and
// casts to handler. Call Attach with the endpoint returned by
// Network.Register(self, peer) before sending.
func NewPeer(self topology.NodeID, handler RequestHandler) *Peer {
	return &Peer{
		self:    self,
		handler: handler,
		pending: make(map[uint64]chan wire.Message),
	}
}

// Attach binds the peer to its network endpoint.
func (p *Peer) Attach(ep Endpoint) {
	p.mu.Lock()
	p.ep = ep
	p.mu.Unlock()
}

// Self returns the node id this peer speaks for.
func (p *Peer) Self() topology.NodeID { return p.self }

// FailCalls fails every pending call and refuses new ones with ErrClosed,
// but leaves casts open: a server that is stopping still has to send the 2PC
// decisions (CohortCommit, AbortTx) of the commits its handlers finish.
func (p *Peer) FailCalls() {
	p.mu.Lock()
	if p.callsFailed {
		p.mu.Unlock()
		return
	}
	p.callsFailed = true
	pending := p.pending
	p.pending = make(map[uint64]chan wire.Message)
	p.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Close fails all pending calls and refuses further calls and casts. The
// underlying endpoint is the owner's to close.
func (p *Peer) Close() {
	p.FailCalls()
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// respChanPool recycles the buffered response channels Call parks on — one
// channel per in-flight request otherwise, on the hottest RPC path in the
// system. A channel may be pooled only when no late send can still target
// it: the clean-response path qualifies (the deliverer removed the pending
// entry before sending, and the send was consumed), the cancellation and
// close paths do not.
var respChanPool = sync.Pool{
	New: func() interface{} { return make(chan wire.Message, 1) },
}

// timerPool recycles the timers CallTimeout bounds its wait with. A timer is
// stopped before it goes back, and Stop leaves no stale tick for the next
// call's Reset to deliver (see CallTimeout).
var timerPool = sync.Pool{
	New: func() interface{} {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	},
}

// Call sends req to node "to" and waits for the matching response or context
// cancellation. A wire.ErrorResp response is converted into an error.
func (p *Peer) Call(ctx context.Context, to topology.NodeID, req wire.Message) (wire.Message, error) {
	return p.CallTimeout(ctx, to, req, 0)
}

// CallTimeout is Call with its wait bounded by d as well as by ctx; d ≤ 0
// means no bound. When d elapses first the call is withdrawn and the error
// is context.DeadlineExceeded, exactly what Call under a
// context.WithTimeout(ctx, d) would return, but without allocating a
// context: the bound is a timer drawn from a pool. Reusing those timers
// relies on Go ≥ 1.23 timer semantics (no stale tick after Stop or Reset),
// which the module's go 1.24 directive selects. A request that was refused
// before it left returns an error that wraps ErrNotSent as well as the cause.
func (p *Peer) CallTimeout(ctx context.Context, to topology.NodeID, req wire.Message, d time.Duration) (wire.Message, error) {
	ch := respChanPool.Get().(chan wire.Message)
	id, owned, err := p.send(to, req, ch)
	if err != nil {
		// A channel FailCalls took and closed must never re-enter the pool: a
		// later Call would Get it and the deliverer's send would panic.
		if owned {
			respChanPool.Put(ch)
		}
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}

	var expired <-chan time.Time
	if d > 0 {
		t := timerPool.Get().(*time.Timer)
		t.Reset(d)
		defer func() {
			t.Stop()
			timerPool.Put(t)
		}()
		expired = t.C
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			// Closed by FailCalls; the channel is dead — never reuse it.
			return nil, ErrClosed
		}
		// The response was consumed and the pending entry is gone, so no
		// further send can target this channel: safe to recycle.
		respChanPool.Put(ch)
		if e, isErr := resp.(wire.ErrorResp); isErr {
			return nil, e.Err()
		}
		return resp, nil
	case <-ctx.Done():
		// A racing Deliver may have removed the pending entry and be about
		// to send; the channel cannot be recycled safely. Let it go.
		p.Forget(id)
		return nil, ctx.Err()
	case <-expired:
		// As on cancellation, the channel may still be targeted.
		p.Forget(id)
		return nil, context.DeadlineExceeded
	}
}

// Ask sends req to node "to" as a call it does not wait for: the response,
// wire.ErrorResp included, arrives on the returned channel unless Forget(id)
// withdraws the call first, and FailCalls closes it. It is never pooled.
func (p *Peer) Ask(to topology.NodeID, req wire.Message) (uint64, <-chan wire.Message, error) {
	ch := make(chan wire.Message, 1)
	id, _, err := p.send(to, req, ch)
	if err != nil {
		return 0, nil, err
	}
	return id, ch, nil
}

// send is the first half of every call: it parks ch, buffered, in pending
// under a fresh request id and sends req. On failure the entry is withdrawn,
// and owned reports whether ch is still the caller's: false when a concurrent
// FailCalls swapped the pending map and closed ch.
func (p *Peer) send(to topology.NodeID, req wire.Message, ch chan wire.Message) (id uint64, owned bool, err error) {
	p.mu.Lock()
	if p.callsFailed {
		p.mu.Unlock()
		return 0, true, ErrClosed
	}
	ep := p.ep
	p.nextID++
	id = p.nextID
	p.pending[id] = ch
	p.mu.Unlock()
	if ep == nil {
		return 0, p.Forget(id), fmt.Errorf("transport: peer %v not attached", p.self)
	}
	if err := ep.Send(Envelope{To: to, Class: ClassRequest, RequestID: id, Msg: req}); err != nil {
		return 0, p.Forget(id), fmt.Errorf("transport: call %v→%v %v: %w", p.self, to, req.Kind(), err)
	}
	return id, true, nil
}

// Cast sends a one-way message to node "to".
func (p *Peer) Cast(to topology.NodeID, msg wire.Message) error {
	p.mu.Lock()
	ep, closed := p.ep, p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if ep == nil {
		return fmt.Errorf("transport: peer %v not attached", p.self)
	}
	return ep.Send(Envelope{To: to, Class: ClassCast, Msg: msg})
}

// CastBatch sends several one-way messages to node "to" in a single wire
// write when the endpoint supports batching (one framed buffer on TCP, one
// link pass on MemNet), falling back to sequential Casts otherwise. Messages
// are delivered in slice order.
func (p *Peer) CastBatch(to topology.NodeID, msgs []wire.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	if len(msgs) == 1 {
		return p.Cast(to, msgs[0])
	}
	p.mu.Lock()
	ep, closed := p.ep, p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if ep == nil {
		return fmt.Errorf("transport: peer %v not attached", p.self)
	}
	if be, ok := ep.(BatchEndpoint); ok {
		envs := make([]Envelope, len(msgs))
		for i, m := range msgs {
			envs[i] = Envelope{To: to, Class: ClassCast, Msg: m}
		}
		return be.SendBatch(envs)
	}
	for _, m := range msgs {
		if err := ep.Send(Envelope{To: to, Class: ClassCast, Msg: m}); err != nil {
			return err
		}
	}
	return nil
}

// Deliver implements Handler, routing responses to pending calls and
// requests/casts to the application handler.
func (p *Peer) Deliver(env Envelope) {
	switch env.Class {
	case ClassResponse:
		p.mu.Lock()
		ch, ok := p.pending[env.RequestID]
		if ok {
			delete(p.pending, env.RequestID)
		}
		p.mu.Unlock()
		if ok {
			ch <- env.Msg // buffered; never blocks
		}
		// A response with no pending call was cancelled; drop it.
	case ClassRequest:
		from, id := env.From, env.RequestID
		p.handler.HandleRequest(from, env.Msg, func(resp wire.Message) {
			p.mu.Lock()
			ep := p.ep
			p.mu.Unlock()
			if ep == nil {
				return
			}
			// Reply even while this peer is closing: the caller may be
			// waiting on this response to finish its own shutdown, and the
			// endpoint outlives the peer. If the network is already gone the
			// send fails and the caller times out — best effort.
			_ = ep.Send(Envelope{To: from, Class: ClassResponse, RequestID: id, Msg: resp})
		})
	case ClassCast:
		p.handler.HandleCast(env.From, env.Msg)
	}
}

// Forget withdraws a pending call, so that a late response is dropped, and
// reports whether the entry was still present — false means FailCalls (or the
// deliverer) already took it, and the caller no longer owns the channel.
func (p *Peer) Forget(id uint64) bool {
	p.mu.Lock()
	_, ok := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	return ok
}

// Pending returns the number of calls awaiting a response.
func (p *Peer) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Compile-time interface compliance.
var _ Handler = (*Peer)(nil)
