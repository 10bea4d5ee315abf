package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// echoHandler answers StartTxReq with a StartTxResp carrying the request's
// timestamp, optionally from a separate goroutine after a delay.
type echoHandler struct {
	delay time.Duration

	mu    sync.Mutex
	casts []wire.Message
}

func (h *echoHandler) HandleRequest(_ topology.NodeID, req wire.Message, reply func(wire.Message)) {
	go func() {
		if h.delay > 0 {
			time.Sleep(h.delay)
		}
		switch m := req.(type) {
		case wire.StartTxReq:
			reply(wire.StartTxResp{TxID: 1, Snapshot: m.ClientUST})
		default:
			reply(wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "unexpected"})
		}
	}()
}

func (h *echoHandler) HandleCast(_ topology.NodeID, msg wire.Message) {
	h.mu.Lock()
	h.casts = append(h.casts, msg)
	h.mu.Unlock()
}

// newPeerPair wires two peers through a fresh MemNet.
func newPeerPair(t *testing.T, hA, hB RequestHandler) (*Peer, *Peer, *MemNet) {
	t.Helper()
	net := NewMemNet(nil)
	t.Cleanup(func() { _ = net.Close() })

	pA, pB := NewPeer(nodeA, hA), NewPeer(nodeB, hB)
	epA, err := net.Register(nodeA, pA)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Register(nodeB, pB)
	if err != nil {
		t.Fatal(err)
	}
	pA.Attach(epA)
	pB.Attach(epB)
	return pA, pB, net
}

type nopHandler struct{}

func (nopHandler) HandleRequest(_ topology.NodeID, _ wire.Message, reply func(wire.Message)) {
	reply(wire.ErrorResp{Msg: "nop"})
}
func (nopHandler) HandleCast(topology.NodeID, wire.Message) {}

func TestPeerCallRoundTrip(t *testing.T) {
	pA, _, _ := newPeerPair(t, nopHandler{}, &echoHandler{})
	resp, err := pA.Call(context.Background(), nodeB, wire.StartTxReq{ClientUST: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.StartTxResp).Snapshot; got != 42 {
		t.Fatalf("echoed snapshot = %v, want 42", got)
	}
}

func TestPeerCallDelayedReplyFromOtherGoroutine(t *testing.T) {
	// The BPR baseline replies long after HandleRequest returns; the peer
	// must match the late response to the pending call.
	pA, _, _ := newPeerPair(t, nopHandler{}, &echoHandler{delay: 50 * time.Millisecond})
	start := time.Now()
	resp, err := pA.Call(context.Background(), nodeB, wire.StartTxReq{ClientUST: 7})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("reply arrived before the handler sent it")
	}
	if resp.(wire.StartTxResp).Snapshot != 7 {
		t.Fatal("wrong payload")
	}
}

func TestPeerConcurrentCallsMatchResponses(t *testing.T) {
	pA, _, _ := newPeerPair(t, nopHandler{}, &echoHandler{})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := hlc.Timestamp(i)
			resp, err := pA.Call(context.Background(), nodeB, wire.StartTxReq{ClientUST: want})
			if err != nil {
				errs <- err
				return
			}
			if got := resp.(wire.StartTxResp).Snapshot; got != want {
				errs <- errors.New("response matched to wrong call")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPeerErrorRespBecomesError(t *testing.T) {
	pA, _, _ := newPeerPair(t, nopHandler{}, &echoHandler{})
	_, err := pA.Call(context.Background(), nodeB, wire.FinishTx{TxID: 1})
	if err == nil {
		t.Fatal("ErrorResp not converted to error")
	}
}

func TestPeerCallContextCancel(t *testing.T) {
	// A handler that never replies.
	silent := HandlerFuncs{
		Request: func(_ topology.NodeID, _ wire.Message, _ func(wire.Message)) {},
	}
	pA, _, _ := newPeerPair(t, nopHandler{}, silent)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := pA.Call(ctx, nodeB, wire.StartTxReq{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPeerCast(t *testing.T) {
	h := &echoHandler{}
	pA, _, _ := newPeerPair(t, nopHandler{}, h)
	if err := pA.Cast(nodeB, wire.ReplicateBatch{SrcDC: 0, UpTo: 9}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		n := len(h.casts)
		h.mu.Unlock()
		if n == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cast not delivered")
}

func TestPeerCloseFailsPendingCalls(t *testing.T) {
	silent := HandlerFuncs{
		Request: func(_ topology.NodeID, _ wire.Message, _ func(wire.Message)) {},
	}
	pA, _, _ := newPeerPair(t, nopHandler{}, silent)
	done := make(chan error, 1)
	go func() {
		_, err := pA.Call(context.Background(), nodeB, wire.StartTxReq{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	pA.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call not released by Close")
	}
	// Further calls fail fast.
	if _, err := pA.Call(context.Background(), nodeB, wire.StartTxReq{}); err == nil {
		t.Fatal("call accepted after Close")
	}
	if err := pA.Cast(nodeB, wire.ReplicateBatch{}); err == nil {
		t.Fatal("cast accepted after Close")
	}
}

func TestPeerUnattachedFailsFast(t *testing.T) {
	p := NewPeer(nodeA, nopHandler{})
	if _, err := p.Call(context.Background(), nodeB, wire.StartTxReq{}); err == nil {
		t.Fatal("unattached call succeeded")
	}
	if err := p.Cast(nodeB, wire.ReplicateBatch{}); err == nil {
		t.Fatal("unattached cast succeeded")
	}
}

// HandlerFuncs adapts free functions to RequestHandler for tests.
type HandlerFuncs struct {
	Request func(topology.NodeID, wire.Message, func(wire.Message))
	Cast    func(topology.NodeID, wire.Message)
}

// HandleRequest implements RequestHandler.
func (h HandlerFuncs) HandleRequest(from topology.NodeID, req wire.Message, reply func(wire.Message)) {
	if h.Request != nil {
		h.Request(from, req, reply)
	}
}

// HandleCast implements RequestHandler.
func (h HandlerFuncs) HandleCast(from topology.NodeID, msg wire.Message) {
	if h.Cast != nil {
		h.Cast(from, msg)
	}
}
