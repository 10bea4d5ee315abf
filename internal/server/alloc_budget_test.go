package server

import (
	"runtime"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TestAllocBudgetLocalReadCommit pins what the coordinator allocates for a
// transaction that stays on its own partition: a ReadReq that starts it and
// a CommitReq with one write, both through HandleRequest as a client's would
// arrive, with no round running and no network. Each request costs its
// request goroutine; the commit is a sole commit on the calling goroutine,
// with no grouping map, no prepared entry and no decision record.
func TestAllocBudgetLocalReadCommit(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 13
	srv := newBenchServer(t)
	key := keysOn(t, srv.cfg.Topology, srv.self.Partition(), 1)[0]
	from := topology.ClientID(0, 0)
	read := wire.ReadReq{Keys: []string{key}}
	writes := []wire.KV{{Key: key, Value: []byte("12345678")}}
	resp := make(chan wire.Message, 1)
	reply := func(m wire.Message) { resp <- m }
	tx := func() {
		srv.HandleRequest(from, read, reply)
		r, ok := (<-resp).(wire.ReadResp)
		if !ok {
			t.Fatalf("read answered %#v", r)
		}
		srv.HandleRequest(from, wire.CommitReq{TxID: r.TxID, Writes: writes}, reply)
		if c, ok := (<-resp).(wire.CommitResp); !ok {
			t.Fatalf("commit answered %#v", c)
		}
	}
	tx()
	if got := testing.AllocsPerRun(2000, tx); got > budget {
		t.Fatalf("a local read+commit allocates %.1f, budget %d", got, budget)
	}
}

// TestAllocBudgetRound pins what a ΔR round allocates: one interface box per
// message it sends, plus — when it carries data — one Txns and one Groups
// backing for its replication chunks. Nothing else: the round's drain, item,
// chunk and size slices are reused scratch, its sort boxes nothing, a node
// without children boxes no USTDown and a relay forwards the one it received.
// The peers are collectors that only count, so everything the count covers
// (measured from the round's start until every cast it sent was delivered)
// is the round's and the transport's own.
func TestAllocBudgetRound(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rounds = 50

	// measure runs n steps and returns the mallocs and the casts they made;
	// setup runs before each step, outside the count.
	measure := func(rig *testRig, n int, setup, step func()) (allocs, casts uint64) {
		t.Helper()
		for _, c := range rig.peers {
			c.countOnly.Store(true)
		}
		// One P, as in testing.AllocsPerRun: waking a second one may start
		// an OS thread, which allocates. And the process's first GC cycle
		// starts its mark workers, which allocates too: not in here.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		var ms runtime.MemStats
		for range n {
			setup()
			runtime.ReadMemStats(&ms)
			m0, sent := ms.Mallocs, rig.net.MessagesSent()
			step()
			rig.awaitDelivered()
			runtime.ReadMemStats(&ms)
			allocs += ms.Mallocs - m0
			casts += rig.net.MessagesSent() - sent
		}
		return allocs, casts
	}

	t.Run("idle", func(t *testing.T) {
		rig := newTestRig(t, ModeNonBlocking)
		tick := func() { rig.clk.Advance(rig.srv.cfg.ApplyInterval) }
		measure(rig, 5, tick, rig.srv.nextRound) // links, scratch and planes warm up
		allocs, casts := measure(rig, rounds, tick, rig.srv.nextRound)
		if casts == 0 || allocs > casts {
			t.Fatalf("%d idle rounds allocated %d for %d casts, budget one per cast", rounds, allocs, casts)
		}
	})

	t.Run("64 commits", func(t *testing.T) {
		rig := newTestRig(t, ModeNonBlocking)
		s := rig.srv
		var id wire.TxID
		// 64 commits over 8 commit timestamps, between the last round's ub
		// and the next one's. They carry no writes: what the store allocates
		// for versions is the data's, pinned by the store's own budgets.
		commit := func() {
			rig.clk.Advance(s.cfg.ApplyInterval)
			for range 8 {
				ct := s.clock.Now()
				for range 8 {
					id++
					tab := &s.twoPC
					tab.mu.Lock()
					tab.pushCommittedLocked(committedTx{id: id, ct: ct, srcDC: s.self.DC})
					tab.mu.Unlock()
				}
			}
		}
		measure(rig, 5, commit, s.nextRound)
		applied := s.Metrics().TxApplied
		allocs, casts := measure(rig, rounds, commit, s.nextRound)
		if got := s.Metrics().TxApplied - applied; got != 64*rounds {
			t.Fatalf("%d rounds applied %d commits, want %d", rounds, got, 64*rounds)
		}
		if allocs > casts+2*rounds {
			t.Fatalf("%d rounds of 64 commits allocated %d for %d casts, budget one per cast + 2 per round",
				rounds, allocs, casts)
		}
	})

	t.Run("relay", func(t *testing.T) {
		// Partition 2 is DC 0's interior node on 3×6×2: parent partition 0,
		// child partition 5.
		rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), func(c *Config) {
			c.Topology, _ = topology.New(3, 6, 2)
		})
		st := &rig.srv.stab
		if st.isRoot || len(st.children) == 0 {
			t.Fatalf("server %v is not an interior node: root %v, %d children", rig.srv.self, st.isRoot, len(st.children))
		}
		var msg wire.Message
		ust := hlc.New(1000, 0)
		down := func() {
			ust++
			msg = wire.USTDown{UST: ust, Sold: ust, Active: true} // boxed by the parent
		}
		relay := func() { rig.srv.HandleCast(st.parent, msg) }
		measure(rig, 5, down, relay)
		allocs, casts := measure(rig, rounds, down, relay)
		if casts != rounds*uint64(len(st.children)) || allocs != 0 {
			t.Fatalf("%d relayed USTDowns allocated %d for %d casts, budget 0", rounds, allocs, casts)
		}
		if got := rig.srv.UST(); got != ust {
			t.Fatalf("UST = %v after relaying %v", got, ust)
		}
	})
}

// awaitDelivered waits until the collectors have counted every message the
// network accepted, so the deliveries' allocations fall inside a measurement.
func (rig *testRig) awaitDelivered() {
	rig.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var n int64
		for _, c := range rig.peers {
			n += c.delivered.Load()
		}
		if uint64(n) >= rig.net.MessagesSent() {
			return
		}
		if time.Now().After(deadline) {
			rig.t.Fatalf("collectors counted %d of %d casts", n, rig.net.MessagesSent())
		}
		runtime.Gosched()
	}
}
