package transport

import (
	"context"
	"sync"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// stripeEchoHandler answers every request with itself and records casts in
// order.
type stripeEchoHandler struct {
	collectHandler
}

func (h *stripeEchoHandler) HandleRequest(_ topology.NodeID, msg wire.Message, reply func(wire.Message)) {
	reply(msg)
}

// TestStripedCastFIFOWithConcurrentRequests is the ordering contract of the
// striped transport: with ConnsPerPeer > 1 and request traffic spraying
// across the stripes, casts between one pair of nodes still arrive in send
// order, because every cast maps to one fixed stripe.
func TestStripedCastFIFOWithConcurrentRequests(t *testing.T) {
	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	h := &stripeEchoHandler{}
	receiver := NewPeer(b, h)

	book := StaticBook{}
	nodeB, err := ListenTCPOpts(b, "127.0.0.1:0", book, receiver, TCPOptions{ConnsPerPeer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeB.Close() }()
	book[b] = nodeB.ListenAddr()

	sender := NewPeer(a, &collectHandler{})
	nodeA, err := ListenTCPOpts(a, "127.0.0.1:0", book, sender, TCPOptions{ConnsPerPeer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeA.Close() }()
	sender.Attach(nodeA)
	receiver.Attach(nodeB)

	// Request chatter in the background: consecutive RequestIDs land on
	// different stripes, so the cast FIFO below runs concurrently with
	// writes on every other connection.
	stopReq := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stopReq:
					return
				default:
				}
				if _, err := sender.Call(ctx, b, wire.ReplicateBatch{SrcDC: 9, UpTo: 1}); err != nil {
					return
				}
			}
		}()
	}

	const n = 400
	for i := 1; i <= n; i++ {
		if err := sender.Cast(b, wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := h.wait(t, n)
	close(stopReq)
	wg.Wait()

	for i, m := range got {
		hb, ok := m.(wire.ReplicateBatch)
		if !ok || hb.SrcDC != 1 || hb.UpTo != hlc.Timestamp(i+1) {
			t.Fatalf("cast %d = %#v, want ReplicateBatch UpTo=%d", i, m, i+1)
		}
	}

	// The request traffic must actually have spread: more than one outbound
	// stripe to b dialed.
	nodeA.mu.Lock()
	dialed := 0
	for _, c := range nodeA.conns[b] {
		if c != nil {
			dialed++
		}
	}
	nodeA.mu.Unlock()
	if dialed < 2 {
		t.Fatalf("striping inactive: %d connections dialed to %v, want >= 2", dialed, b)
	}
}

// TestStripedTCPCounters checks the MemNet-compatible counter surface on
// TCPNode: totals, per-kind counts and batch accounting.
func TestStripedTCPCounters(t *testing.T) {
	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	var h collectHandler
	receiver := NewPeer(b, &h)

	book := StaticBook{}
	nodeB, err := ListenTCPOpts(b, "127.0.0.1:0", book, receiver, TCPOptions{ConnsPerPeer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeB.Close() }()
	book[b] = nodeB.ListenAddr()

	sender := NewPeer(a, &collectHandler{})
	nodeA, err := ListenTCPOpts(a, "127.0.0.1:0", book, sender, TCPOptions{ConnsPerPeer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeA.Close() }()
	sender.Attach(nodeA)
	receiver.Attach(nodeB)

	if err := sender.Cast(b, wire.ReplicateBatch{SrcDC: 1, UpTo: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sender.CastBatch(b, batchOf(5)); err != nil {
		t.Fatal(err)
	}
	h.wait(t, 6)

	if got := nodeA.MessagesSent(); got != 6 {
		t.Fatalf("MessagesSent = %d, want 6", got)
	}
	if got := nodeA.BatchesSent(); got != 1 {
		t.Fatalf("BatchesSent = %d, want 1", got)
	}
	if got := nodeA.BatchedEnvelopes(); got != 5 {
		t.Fatalf("BatchedEnvelopes = %d, want 5", got)
	}
	if got := nodeA.MessagesByKind()[wire.KindReplicateBatch]; got != 6 {
		t.Fatalf("byKind[ReplicateBatch] = %d, want 6", got)
	}
}
