package transport

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
	"weak"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// seqHandler records the sequence number each delivered ReadReq carries in
// its first key and keeps nothing else of the message.
type seqHandler struct {
	mu  sync.Mutex
	got []int
}

func (h *seqHandler) Deliver(env Envelope) {
	n, _ := strconv.Atoi(env.Msg.(wire.ReadReq).Keys[0])
	h.mu.Lock()
	h.got = append(h.got, n)
	h.mu.Unlock()
}

// waitDelivered polls until n envelopes have been delivered.
func (h *seqHandler) waitDelivered(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		got := len(h.got)
		h.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d deliveries (have %d)", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendSeq sends ReadReqs numbered from..to-1 and returns a weak pointer to
// each payload's key array, so the caller can tell whether anything still
// references a delivered message.
func sendSeq(t *testing.T, ep Endpoint, to topology.NodeID, from, upto int) []weak.Pointer[string] {
	t.Helper()
	var ptrs []weak.Pointer[string]
	for i := from; i < upto; i++ {
		keys := []string{strconv.Itoa(i)}
		ptrs = append(ptrs, weak.Make(&keys[0]))
		if err := ep.Send(Envelope{To: to, Class: ClassCast, Msg: wire.ReadReq{Keys: keys}}); err != nil {
			t.Fatal(err)
		}
	}
	return ptrs
}

// TestMemNetReleasesDeliveredMessages checks that a link's queue holds no
// reference to an envelope it has delivered. Slicing the head off the queue
// left every delivered envelope, payload included, reachable through the
// backing array until the next regrowth. Each burst queues behind a
// partition, so the queue really fills before it drains.
func TestMemNetReleasesDeliveredMessages(t *testing.T) {
	const n = 64
	net := NewMemNet(nil)
	defer func() { _ = net.Close() }()
	a, b := nodeA, nodeB
	epA, err := net.Register(a, &seqHandler{})
	if err != nil {
		t.Fatal(err)
	}
	h := &seqHandler{}
	if _, err := net.Register(b, h); err != nil {
		t.Fatal(err)
	}

	var ptrs []weak.Pointer[string]
	for round := 0; round < 2; round++ {
		net.SetPartitioned(a.DC, b.DC, true)
		ptrs = append(ptrs, sendSeq(t, epA, b, round*n, (round+1)*n)...)
		net.SetPartitioned(a.DC, b.DC, false)
		h.waitDelivered(t, (round+1)*n)

		net.mu.Lock()
		l := net.links[linkKey{from: a, to: b}]
		net.mu.Unlock()
		l.mu.Lock()
		for i, te := range l.queue[:cap(l.queue)] {
			if te.env.Msg != nil {
				t.Errorf("round %d: slot %d of a drained queue still holds %v", round, i, te.env.Msg)
			}
		}
		l.mu.Unlock()
	}

	for i := 0; i < 2*n; i++ {
		if h.got[i] != i {
			t.Fatalf("delivery %d carried %d: FIFO broken across drain and refill", i, h.got[i])
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		live := 0
		for _, p := range ptrs {
			if p.Value() != nil {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d delivered payloads are still reachable", live, len(ptrs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMemLinkCompactsDeliveredPrefix checks the queue's compaction: a full
// array whose front half is delivered moves its undelivered tail to the
// front instead of growing, and clears the slots the tail moved out of.
func TestMemLinkCompactsDeliveredPrefix(t *testing.T) {
	l := newMemLink(nil, linkKey{}, 0)
	l.queue = make([]timedEnvelope, 0, 4)
	for i := 0; i < 4; i++ {
		l.appendLocked(timedEnvelope{env: Envelope{RequestID: uint64(i)}})
	}
	// Deliver two, as run does: zero the slot, advance the head.
	for ; l.head < 2; l.head++ {
		l.queue[l.head] = timedEnvelope{}
	}
	l.appendLocked(timedEnvelope{env: Envelope{RequestID: 4}})

	if l.head != 0 || len(l.queue) != 3 || cap(l.queue) != 4 {
		t.Fatalf("head %d, len %d, cap %d: want the tail compacted to the front of the same array",
			l.head, len(l.queue), cap(l.queue))
	}
	for i, te := range l.queue {
		if want := uint64(i + 2); te.env.RequestID != want {
			t.Fatalf("slot %d holds %d, want %d", i, te.env.RequestID, want)
		}
	}
	if te := l.queue[:4][3]; te.env != (Envelope{}) {
		t.Fatalf("slot a moved entry left still holds %+v", te.env)
	}
}
