package transport

import (
	"context"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/wire"
)

// TestAllocBudgetPeerCall pins what one Peer.Call round trip allocates on a
// zero-latency MemNet with a responder that replies inline: the reply
// closure Deliver hands the handler and the response boxed into its
// wire.Message. The response channel is pooled, a link queue reuses its
// array, and a bounded call draws its timer from a pool, so CallTimeout
// costs what Call does.
func TestAllocBudgetPeerCall(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 2
	pA, to := newBenchPeerPair(t)
	ctx := context.Background()
	for _, bound := range []time.Duration{0, time.Minute} {
		call := func() {
			if _, err := pA.CallTimeout(ctx, to, wire.StartTxReq{ClientUST: 42}, bound); err != nil {
				t.Fatal(err)
			}
		}
		call() // create the link, fill the pools
		if got := testing.AllocsPerRun(1000, call); got > budget {
			t.Fatalf("a call bounded by %v allocates %.1f per round trip, budget %d", bound, got, budget)
		}
	}
}
