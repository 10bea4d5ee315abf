package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// answerUnlessZero replies at once to a StartTxReq with a non-zero ClientUST
// and never to one with a zero ClientUST.
var answerUnlessZero = HandlerFuncs{
	Request: func(_ topology.NodeID, req wire.Message, reply func(wire.Message)) {
		if m := req.(wire.StartTxReq); m.ClientUST != 0 {
			reply(wire.StartTxResp{TxID: 1, Snapshot: m.ClientUST})
		}
	},
}

func pendingCalls(p *Peer) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// TestCallTimeoutReusesTimersSafely checks the pooled timers CallTimeout
// bounds its wait with: an expired bound withdraws the call, no timer that
// fired or raced a response leaves a stale tick for a later call, and the
// caller's context still wins over a long bound.
func TestCallTimeoutReusesTimersSafely(t *testing.T) {
	pA, _, _ := newPeerPair(t, nopHandler{}, answerUnlessZero)
	bg := context.Background()

	_, err := pA.CallTimeout(bg, nodeB, wire.StartTxReq{}, 20*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered call returned %v, want DeadlineExceeded", err)
	}
	if n := pendingCalls(pA); n != 0 {
		t.Fatalf("%d calls still pending after the bound expired", n)
	}

	// Each prompt call follows a call whose bound is about as long as a
	// round trip: its timer may fire, lose to the response or both, and
	// goes back to the pool either way. A stale tick left in it would fail
	// the prompt call that draws it next.
	for i := 0; i < 1000; i++ {
		_, _ = pA.CallTimeout(bg, nodeB, wire.StartTxReq{ClientUST: 1}, time.Duration(1+i%20)*time.Microsecond/4)
		if _, err := pA.CallTimeout(bg, nodeB, wire.StartTxReq{ClientUST: 7}, time.Minute); err != nil {
			t.Fatalf("prompt call %d after a reused timer failed: %v", i, err)
		}
	}
	if n := pendingCalls(pA); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}

	ctx, cancel := context.WithCancel(bg)
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err = pA.CallTimeout(ctx, nodeB, wire.StartTxReq{}, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancelled call returned after %v", waited)
	}
	if n := pendingCalls(pA); n != 0 {
		t.Fatalf("%d calls still pending after cancellation", n)
	}
}
