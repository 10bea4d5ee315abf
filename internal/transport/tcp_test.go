package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	env := Envelope{
		From:      topology.ServerID(3, 17),
		Class:     ClassRequest,
		RequestID: 12345,
		Msg:       wire.PrepareReq{TxID: 9, Snapshot: 1, HT: 2, Writes: []wire.KV{{Key: "k", Value: []byte("v")}}},
	}
	frame := encodeFrame(env)
	// Strip the length prefix as the read loop does.
	got, err := decodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.From != env.From || got.Class != env.Class || got.RequestID != env.RequestID {
		t.Fatalf("header mismatch: %+v vs %+v", got, env)
	}
	if _, ok := got.Msg.(wire.PrepareReq); !ok {
		t.Fatalf("payload type lost: %T", got.Msg)
	}
}

func TestFrameRejectsShortBuffer(t *testing.T) {
	if _, err := decodeFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestFrameQuickRoundTrip(t *testing.T) {
	f := func(dc int32, idx int32, role uint8, class uint8, reqID uint64, ts uint64) bool {
		env := Envelope{
			From: topology.NodeID{
				DC:    topology.DCID(dc),
				Index: idx,
				Role:  topology.Role(role),
			},
			// The class byte's high bit is the codec tag, so only 7 bits
			// of class are representable on the wire.
			Class:     Class(class &^ frameTagBit),
			RequestID: reqID,
			// The header carries any int32 DC; a message's DC id must be
			// non-negative, or the decoder rejects it as malformed.
			Msg: wire.ReplicateBatch{SrcDC: topology.DCID(dc & math.MaxInt32), UpTo: hlc.Timestamp(ts)},
		}
		got, err := decodeFrame(encodeFrame(env)[4:])
		return err == nil && got.From == env.From && got.Class == env.Class &&
			got.RequestID == env.RequestID && got.Msg.(wire.ReplicateBatch).UpTo == hlc.Timestamp(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPDropsUntaggedFrame writes hand-built frames to a node's listener. A
// frame whose class byte lacks the codec tag is rejected and its connection
// closed, even when its body decodes (a FinishTx body reads the same in the
// retired fixed-width format); the same frame with the tag is delivered.
func TestTCPDropsUntaggedFrame(t *testing.T) {
	h := &echoHandler{}
	_, node := startTCPNode(t, nodeB, h, StaticBook{})
	frame := encodeFrame(Envelope{From: nodeA, Class: ClassCast, Msg: wire.FinishTx{TxID: 7}})

	send := func(frame []byte) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", node.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	casts := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.casts)
	}

	untagged := append([]byte(nil), frame...)
	untagged[4+9] &^= frameTagBit
	if _, err := decodeFrame(untagged[4:]); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("decodeFrame(untagged) = %v, want ErrMalformed", err)
	}
	conn := send(untagged)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("untagged frame: read %d bytes, err %v; want the node to close the connection", n, err)
	}
	if n := casts(); n != 0 {
		t.Fatalf("untagged frame delivered %d casts", n)
	}

	send(frame)
	deadline := time.Now().Add(5 * time.Second)
	for casts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tagged frame never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

// startTCPNode is a test helper that wires a Peer over a real TCP listener.
func startTCPNode(t *testing.T, self topology.NodeID, handler RequestHandler, book StaticBook) (*Peer, *TCPNode) {
	t.Helper()
	p := NewPeer(self, handler)
	node, err := ListenTCP(self, "127.0.0.1:0", book, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	p.Attach(node)
	return p, node
}

func TestTCPCallRoundTrip(t *testing.T) {
	book := StaticBook{}
	_, nodeBB := startTCPNode(t, nodeB, &echoHandler{}, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: 11})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(wire.StartTxResp).Snapshot != 11 {
		t.Fatalf("bad response %+v", resp)
	}
}

func TestTCPCastsPreserveFIFO(t *testing.T) {
	book := StaticBook{}
	h := &echoHandler{}
	_, nodeBB := startTCPNode(t, nodeB, h, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	const n = 200
	for i := 0; i < n; i++ {
		if err := pA.Cast(nodeB, wire.ReplicateBatch{SrcDC: 0, UpTo: hlc.Timestamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		count := len(h.casts)
		h.mu.Unlock()
		if count >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d casts arrived", count, n)
		}
		time.Sleep(time.Millisecond)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, msg := range h.casts {
		if ts := msg.(wire.ReplicateBatch).UpTo; ts != hlc.Timestamp(i) {
			t.Fatalf("TCP FIFO violated at %d: ts=%d", i, ts)
		}
	}
}

func TestTCPUnknownAddress(t *testing.T) {
	pA, _ := startTCPNode(t, nodeA, nopHandler{}, StaticBook{})
	if err := pA.Cast(nodeB, wire.ReplicateBatch{}); err == nil {
		t.Fatal("cast to unknown address succeeded")
	}
}

// TestTCPDialIsBounded checks that a send to a peer without a connection
// dials under a deadline no later than dialTimeout, so a blackholed host
// stalls the sender's round for a bounded time. The hook fails at once;
// nothing is dialed.
func TestTCPDialIsBounded(t *testing.T) {
	pA, node := startTCPNode(t, nodeA, nopHandler{}, StaticBook{nodeB: "blackholed.invalid:7000"})
	errRefused := errors.New("dial refused by the test")
	dials := 0
	node.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials++
		deadline, ok := ctx.Deadline()
		if !ok {
			t.Fatalf("dial of %s %s carries no deadline", network, addr)
		}
		if left := time.Until(deadline); left <= 0 || left > dialTimeout {
			t.Fatalf("dial deadline is %v away, want within (0, %v]", left, dialTimeout)
		}
		return nil, errRefused
	}
	if err := pA.Cast(nodeB, wire.FinishTx{TxID: 1}); !errors.Is(err, errRefused) {
		t.Fatalf("cast to an undialable peer returned %v, want the dial's error", err)
	}
	if dials != 1 {
		t.Fatalf("cast dialed %d times, want 1", dials)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	book := StaticBook{}
	p := NewPeer(nodeA, nopHandler{})
	node, err := ListenTCP(nodeA, "127.0.0.1:0", book, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(node)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Send(Envelope{To: nodeB, Class: ClassCast, Msg: wire.ReplicateBatch{}}); err == nil {
		t.Fatal("send accepted after close")
	}
	// Double close is fine.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticBookUnknown(t *testing.T) {
	b := StaticBook{nodeA: "x"}
	if _, err := b.Addr(nodeB); err == nil {
		t.Fatal("unknown node resolved")
	}
	if addr, err := b.Addr(nodeA); err != nil || addr != "x" {
		t.Fatalf("Addr = %q, %v", addr, err)
	}
}

func TestTCPCloseDoesNotHangOnInboundConnections(t *testing.T) {
	// Regression test: Close must terminate read loops on *inbound*
	// connections even while the remote end keeps its outbound side open.
	// Before the fix, two nodes closing in sequence deadlocked: each Close
	// waited on a read loop fed by the other node's still-open connection.
	book := StaticBook{}
	pB, nodeBB := startTCPNode(t, nodeB, &echoHandler{}, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, &echoHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	// Establish connections in both directions (request + reply dial back).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pB.Call(ctx, nodeA, wire.StartTxReq{ClientUST: 2}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		_ = nodeAA.Close()
		_ = nodeBB.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sequential Close of interconnected nodes deadlocked")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	// Many concurrent calls through one node pair: exercises connection
	// reuse, request-id matching and writer batching under contention.
	book := StaticBook{}
	_, nodeBB := startTCPNode(t, nodeB, &echoHandler{}, book)
	book[nodeB] = nodeBB.ListenAddr()
	pA, nodeAA := startTCPNode(t, nodeA, nopHandler{}, book)
	book[nodeA] = nodeAA.ListenAddr()

	const workers = 16
	const callsPerWorker = 50
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				want := hlc.Timestamp(w*callsPerWorker + i)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: want})
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if got := resp.(wire.StartTxResp).Snapshot; got != want {
					errs <- fmt.Errorf("response mismatch: got %v want %v", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPReverseRouteForUnresolvableCaller(t *testing.T) {
	// A client dials a server whose address book has no entry for the
	// client (the real deployment case: clients listen on ephemeral ports
	// servers never learn). The reply must come back over the request's own
	// connection.
	serverBook := StaticBook{} // knows nobody
	_, serverNode := startTCPNode(t, nodeB, &echoHandler{}, serverBook)

	clientBook := StaticBook{nodeB: serverNode.ListenAddr()}
	pA, _ := startTCPNode(t, nodeA, nopHandler{}, clientBook)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := pA.Call(ctx, nodeB, wire.StartTxReq{ClientUST: 77})
	if err != nil {
		t.Fatalf("reverse-routed call failed: %v", err)
	}
	if resp.(wire.StartTxResp).Snapshot != 77 {
		t.Fatalf("bad response %+v", resp)
	}
}

// requestEchoHandler answers every request with itself and records casts in
// order.
type requestEchoHandler struct {
	collectHandler
}

func (h *requestEchoHandler) HandleRequest(_ topology.NodeID, msg wire.Message, reply func(wire.Message)) {
	reply(msg)
}

// TestTCPCastFIFOWithConcurrentRequests is the ordering contract of the TCP
// transport: with request traffic sharing the one connection per peer, casts
// between one pair of nodes still arrive in send order.
func TestTCPCastFIFOWithConcurrentRequests(t *testing.T) {
	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	h := &requestEchoHandler{}
	receiver := NewPeer(b, h)

	book := StaticBook{}
	nodeB, err := ListenTCP(b, "127.0.0.1:0", book, receiver)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeB.Close() }()
	book[b] = nodeB.ListenAddr()

	sender := NewPeer(a, &collectHandler{})
	nodeA, err := ListenTCP(a, "127.0.0.1:0", book, sender)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeA.Close() }()
	sender.Attach(nodeA)
	receiver.Attach(nodeB)

	// Request chatter in the background, interleaved with the casts below on
	// the same connection.
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

	// Requests and casts shared one outbound connection.
	nodeA.mu.Lock()
	dialed := len(nodeA.conns)
	nodeA.mu.Unlock()
	if dialed != 1 {
		t.Fatalf("%d outbound connections, want 1", dialed)
	}
}

// TestTCPCounters checks the MemNet-compatible counter surface on
// TCPNode: totals, per-kind counts and batch accounting.
func TestTCPCounters(t *testing.T) {
	a := topology.ServerID(0, 0)
	b := topology.ServerID(1, 0)
	var h collectHandler
	receiver := NewPeer(b, &h)

	book := StaticBook{}
	nodeB, err := ListenTCP(b, "127.0.0.1:0", book, receiver)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodeB.Close() }()
	book[b] = nodeB.ListenAddr()

	sender := NewPeer(a, &collectHandler{})
	nodeA, err := ListenTCP(a, "127.0.0.1:0", book, sender)
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
