package server

import (
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// TestHandleReadReturnsRequestKeyOrder pins the response contract: items come
// back in request-key order regardless of which partition serves them and
// which fan-out goroutine finishes first, with never-written keys absent.
func TestHandleReadReturnsRequestKeyOrder(t *testing.T) {
	srv, topo := hotpathServer(t)
	local := topo.PartitionsAt(0)
	a := keysOn(t, topo, local[0], 3)
	b := keysOn(t, topo, local[1], 3)

	// Interleave the two partitions and plant a missing key in the middle:
	// hotpathServer seeds the first 16 keys of each partition, so the 17th
	// exists on a served partition but has never been written.
	missing := keysOn(t, topo, local[1], 17)[16]
	req := []string{b[0], a[0], missing, a[1], b[1], b[2], a[2]}
	want := []string{b[0], a[0], a[1], b[1], b[2], a[2]}

	start := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	for run := 0; run < 16; run++ { // order must hold on every run, not by luck
		resp, ok := srv.handleRead(wire.ReadReq{TxID: start.TxID, Keys: req}).(wire.ReadResp)
		if !ok {
			t.Fatal("read failed")
		}
		if len(resp.Items) != len(want) {
			t.Fatalf("run %d: %d items, want %d", run, len(resp.Items), len(want))
		}
		for i, it := range resp.Items {
			if it.Key != want[i] {
				t.Fatalf("run %d: item %d = %q, want %q", run, i, it.Key, want[i])
			}
		}
	}
}

// TestHandleReadDecidesWithheldKeys: keys the client's write cache holds
// arrive beside the request with their cached update times. The coordinator
// reads the ones the snapshot it has just fixed has passed, after the
// requested keys, and leaves the others to the cache — without touching the
// request's own key array, which the client still holds on MemNet.
func TestHandleReadDecidesWithheldKeys(t *testing.T) {
	srv, topo := hotpathServer(t) // UST 100.0, every seeded key written at 10.0
	local := topo.PartitionsAt(0)
	a := keysOn(t, topo, local[0], 3)
	b := keysOn(t, topo, local[1], 2)

	keys := make([]string, 1, 4)
	keys[0] = a[0]
	resp, ok := srv.handleRead(wire.ReadReq{Keys: keys, Cached: []wire.CachedKey{
		{Key: b[0], UT: hlc.New(100, 0)}, // at the snapshot: passed
		{Key: a[1], UT: hlc.New(100, 1)}, // above it: the cache's to answer
		{Key: a[2], UT: hlc.New(40, 0)},  // passed
	}}).(wire.ReadResp)
	if !ok || resp.Snapshot != hlc.New(100, 0) {
		t.Fatalf("read %+v (ok=%v), want a new transaction at 100.0", resp, ok)
	}
	want := []string{a[0], b[0], a[2]}
	if len(resp.Items) != len(want) {
		t.Fatalf("%d items, want %v", len(resp.Items), want)
	}
	for i, it := range resp.Items {
		if it.Key != want[i] {
			t.Fatalf("item %d = %q, want %q", i, it.Key, want[i])
		}
	}
	if spare := keys[:cap(keys)][1:]; spare[0] != "" || spare[1] != "" {
		t.Fatalf("the request's key array was written into: %q", spare)
	}

	// Every key withheld and none passed: the transaction starts, nothing is
	// read.
	resp, ok = srv.handleRead(wire.ReadReq{Cached: []wire.CachedKey{{Key: a[0], UT: hlc.New(500, 0)}}}).(wire.ReadResp)
	if !ok || resp.TxID == 0 || len(resp.Items) != 0 {
		t.Fatalf("read %+v (ok=%v), want a started transaction and no items", resp, ok)
	}
}

// errorCohort answers every read-slice request with a fixed error code.
type errorCohort struct{ code uint16 }

func (e errorCohort) HandleRequest(_ topology.NodeID, _ wire.Message, reply func(wire.Message)) {
	reply(wire.ErrorResp{Code: e.code, Msg: "refused by test cohort"})
}

func (errorCohort) HandleCast(topology.NodeID, wire.Message) {}

// TestHandleReadPropagatesErrorCode pins the satellite bugfix: a cohort's
// protocol refusal (here CodeTxAborted) must reach the client unflattened,
// not masked as a retryable CodeUnavailable.
func TestHandleReadPropagatesErrorCode(t *testing.T) {
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemNet(transport.ZeroLatency{})
	t.Cleanup(func() { _ = net.Close() })

	srv, err := New(Config{ID: topology.ServerID(0, 0), Topology: topo, Clock: clockAt(1000)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	ep, err := net.Register(srv.ID(), srv.Peer())
	if err != nil {
		t.Fatal(err)
	}
	srv.Peer().Attach(ep)

	// The DC's other partition is served by a peer that refuses every read
	// with a non-retryable code.
	other := topo.PartitionsAt(0)[1]
	refuser := transport.NewPeer(topology.ServerID(0, other), errorCohort{code: wire.CodeTxAborted})
	rep, err := net.Register(refuser.Self(), refuser)
	if err != nil {
		t.Fatal(err)
	}
	refuser.Attach(rep)

	start := srv.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	keys := keysOn(t, topo, other, 2)
	resp := srv.handleRead(wire.ReadReq{TxID: start.TxID, Keys: keys})
	e, ok := resp.(wire.ErrorResp)
	if !ok {
		t.Fatalf("read succeeded against a refusing cohort: %+v", resp)
	}
	if e.Code != wire.CodeTxAborted {
		t.Fatalf("error code %d, want CodeTxAborted (%d): %s", e.Code, wire.CodeTxAborted, e.Msg)
	}

	// The multi-partition path must propagate the same way (one healthy
	// local slice, one refusal).
	mixed := append(keysOn(t, topo, topology.PartitionID(0), 2), keys...)
	resp = srv.handleRead(wire.ReadReq{TxID: start.TxID, Keys: mixed})
	if e, ok := resp.(wire.ErrorResp); !ok || e.Code != wire.CodeTxAborted {
		t.Fatalf("multi-partition read: %+v, want CodeTxAborted", resp)
	}
}
