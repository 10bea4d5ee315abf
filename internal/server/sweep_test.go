package server

import (
	"math"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// These tests pin the server's one clock edge: GC, context expiry and the
// prepared-transaction reaper are steps of the ΔR round, paced in rounds, and
// the 2PC and context bookkeeping they age is stamped with round labels.

func TestRoundsIsCeilingAndNeverWraps(t *testing.T) {
	const dR = 5 * time.Millisecond
	c := Config{ApplyInterval: dR}
	ceil := func(d time.Duration) int64 { // ⌈d/ΔR⌉ without fixed-width arithmetic
		q, r := new(big.Int).QuoRem(big.NewInt(int64(d)), big.NewInt(int64(dR)), new(big.Int))
		if r.Sign() > 0 {
			q.Add(q, big.NewInt(1))
		}
		return q.Int64()
	}
	ds := []time.Duration{1, dR, dR + 1, math.MaxInt64 - dR, math.MaxInt64}
	want := []int64{1, 1, 2, ceil(math.MaxInt64 - dR), ceil(math.MaxInt64)}
	last := int64(0)
	for i, d := range ds {
		got := c.rounds(d)
		if got != want[i] {
			t.Errorf("rounds(%d) = %d, want %d", int64(d), got, want[i])
		}
		if got < last {
			t.Errorf("rounds(%d) = %d is below rounds of a shorter duration (%d)", int64(d), got, last)
		}
		last = got
	}
}

// TestSweepsRunOnTheirRounds drives the round by hand with GC, the context
// TTL and the reaper each due on a different cadence — every 2nd, 3rd and 5th
// round, all counted from the server's first, GC's offset by the partition
// index — and a recovery hold over the first eight rounds. Before every round
// it plants work each sweep would visibly do: two versions below the GC
// watermark, a context past its TTL, and a self-coordinated orphan prepare
// past PreparedTTL. After the round (and the GC it started), the work is done
// exactly when that sweep was due.
func TestSweepsRunOnTheirRounds(t *testing.T) {
	for _, id := range []topology.NodeID{topology.ServerID(0, 0), topology.ServerID(1, 1)} {
		t.Run(id.String(), func(t *testing.T) { testSweepsRunOnTheirRounds(t, id) })
	}
}

func testSweepsRunOnTheirRounds(t *testing.T, id topology.NodeID) {
	const dR = 5 * time.Millisecond
	rig := newTestRigAt(t, ModeNonBlocking, id, func(c *Config) {
		c.ApplyInterval = dR
		c.GCInterval = 2 * dR
		c.TxContextTTL = 6 * dR
		c.PreparedTTL = 20 * dR
		c.RecoveryHold = 8 * dR
	})
	s := rig.srv
	s.sold.advance(hlc.MaxTimestamp - 1) // every planted version is GC-able but the newest
	const hold = 8
	gcOffset := int64(id.Partition())

	for r := int64(1); r <= 30; r++ {
		ut := hlc.New(uint64(2*r), 0)
		s.store.Apply(wire.Item{Key: "g", Value: []byte("v"), UT: ut})
		s.store.Apply(wire.Item{Key: "g", Value: []byte("v"), UT: ut + 1})
		s.txCtx.put(wire.NewTxID(2, 2, uint64(r)), txContext{lastActive: s.label() - 100}, nil)
		s.handlePrepare(wire.PrepareReq{TxID: wire.NewTxID(s.self.DC, s.self.Partition(), uint64(r)), HT: 100})
		agePrepared(s, 100*dR)
		gcBefore := s.Metrics().GCRemoved

		s.applyTick(r, r)
		for s.gcRunning.Load() {
			runtime.Gosched()
		}

		gcRan := s.Metrics().GCRemoved > gcBefore
		ctxRan := s.ActiveTxContexts() == 0
		reapRan := s.PendingPrepared() == 0
		if want := (r-1+gcOffset)%2 == 0; gcRan != want {
			t.Errorf("round %d: GC ran = %v, want %v", r, gcRan, want)
		}
		if want := (r-1)%3 == 0; ctxRan != want {
			t.Errorf("round %d: context expiry ran = %v, want %v", r, ctxRan, want)
		}
		if want := (r-1)%5 == 0; reapRan != want {
			t.Errorf("round %d: reaper ran = %v, want %v", r, reapRan, want)
		}
		if moved := s.VersionVector()[s.self.DC] != 0; moved != (r > hold) {
			t.Errorf("round %d: own entry moved = %v, want %v (hold of %d rounds)", r, moved, r > hold, hold)
		}
	}
}

// TestPrepareBeforeFirstRoundIsQueriedNotReaped closes the stamp hazard: a
// prepare stamped before the server's first round must not look as old as the
// epoch there. One prepare lands before any label is published (stamped 0),
// one after the label is published as runLoop publishes it before arming the
// timer; at the first round, two labels later, both are past PreparedTTL (one
// round), so the reaper asks their silent coordinator for their fate — and
// reaps neither, for neither is past the hard cutoff yet.
func TestPrepareBeforeFirstRoundIsQueriedNotReaped(t *testing.T) {
	const dR = 5 * time.Millisecond
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.ApplyInterval = dR
		c.PreparedTTL = dR
	})
	s := rig.srv
	coord := topology.ServerID(1, 0) // a collector: never answers
	prepare := func(seq uint64) {
		s.handlePrepare(wire.PrepareReq{TxID: wire.NewTxID(1, 0, seq), HT: 100,
			Writes: []wire.KV{{Key: "k", Value: []byte("v")}}})
	}
	prepare(1)
	start := time.Now().UnixNano() / int64(dR)
	s.labelNow.Store(start)
	prepare(2)

	s.applyTick(start+2, start+2) // the first round: both entries two rounds old, or older
	rig.peers[coord].waitKind(t, wire.KindTxStatusReq, 2)
	if got := s.PendingPrepared(); got != 2 {
		t.Fatalf("%d prepared entries left after the first sweep, want 2 (queried, not reaped)", got)
	}
	if got := s.Metrics().TxReaped; got != 0 {
		t.Fatalf("TxReaped = %d at the first sweep, want 0", got)
	}
}

// TestWallClockStepLeavesBookkeepingAges: the round's wire label follows the
// host's wall clock, steps included, but the bookkeeping ages by the steady
// label. The wire label jumps a million rounds forward, then two million
// back, while the steady label advances one per round. A prepare whose
// coordinator is silent is queried once it is past PreparedTTL on the steady
// clock and reaped by neither jump, and repair requests keep firing through
// the backward one.
func TestWallClockStepLeavesBookkeepingAges(t *testing.T) {
	const (
		dR   = 5 * time.Millisecond
		step = 1_000_000
	)
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.ApplyInterval = dR
		c.PreparedTTL = 4 * dR // the reaper sweeps every round
	})
	s := rig.srv
	coord := topology.ServerID(1, 0) // a collector: never answers
	base := time.Now().UnixNano() / int64(dR)
	s.applyTick(base, base)
	s.handlePrepare(wire.PrepareReq{TxID: wire.NewTxID(1, 0, 1), HT: 100,
		Writes: []wire.KV{{Key: "k", Value: []byte("v")}}})

	// Forward: the reaper leaves the prepare alone until it is four steady
	// rounds old, then asks its coordinator.
	for r := int64(1); r <= 4; r++ {
		s.applyTick(base+r+step, base+r)
	}
	rig.peers[coord].quiet(t, wire.KindTxStatusReq, 0)
	s.applyTick(base+5+step, base+5)
	rig.peers[coord].waitKind(t, wire.KindTxStatusReq, 1)
	if got, reaped := s.PendingPrepared(), s.Metrics().TxReaped; got != 1 || reaped != 0 {
		t.Fatalf("after a forward step: %d prepared, %d reaped; want 1 queried, 0 reaped", got, reaped)
	}

	// Backward: a repair request fires, and the next one is due within twice
	// the backoff in steady rounds, not when the wall clock catches up.
	st := &s.replIn[2]
	st.mu.Lock()
	if !s.repairPacingLocked(st) {
		t.Fatal("the first repair request did not fire")
	}
	st.mu.Unlock()
	for r := int64(6); ; r++ {
		if r > 6+2*s.replSyncRetry {
			t.Fatalf("no repair request in %d steady rounds after a backward step", 2*s.replSyncRetry)
		}
		s.applyTick(base+r-step, base+r)
		st.mu.Lock()
		fired := s.repairPacingLocked(st)
		st.mu.Unlock()
		if fired {
			break
		}
	}
}

// TestStartArmsOneLoop: a started server with GC and the reaper enabled runs
// one loop goroutine, the round.
func TestStartArmsOneLoop(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.GCInterval = 10 * time.Millisecond
		c.PreparedTTL = time.Second
	})
	loops := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by github.com/paris-kv/paris/internal/server.(*Server).runLoop in goroutine")
	}
	before := loops()
	rig.srv.Start()
	if got := loops() - before; got != 1 {
		t.Fatalf("Start armed %d loops, want 1", got)
	}
}

// TestDecisionsExpireInStampOrder: tombstones, decision records and recovery
// receipts expire when their own stamp passes the cutoff, whatever the order
// of their ids and maps, an id stamped again lives on under its later stamp,
// and a restarted server's imported records expire the same way, stamps
// unordered in the export or not.
func TestDecisionsExpireInStampOrder(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv
	tab := &s.twoPC
	tab.mu.Lock()
	tab.decideLocked(1, decidedTx{at: 10})
	tab.abortLocked(2, 20)
	tab.doneLocked(3, 30)
	tab.abortLocked(1, 40) // id 1 again, in another map
	tab.mu.Unlock()

	snapshot := func(tab *twoPCTable) (decided, aborted, done int) {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		return len(tab.decided), len(tab.aborted), len(tab.done)
	}
	tab.pruneDecisions(25)
	if d, a, n := snapshot(tab); d != 0 || a != 1 || n != 1 {
		t.Fatalf("after cutoff 25: %d decided, %d aborted, %d done; want 0, 1 (id 1 at 40), 1", d, a, n)
	}
	export := s.ExportTwoPC()
	tab.pruneDecisions(41)
	if d, a, n := snapshot(tab); d != 0 || a != 0 || n != 0 || len(tab.expiry) != 0 {
		t.Fatalf("after cutoff 41: %d decided, %d aborted, %d done, %d queued; want none", d, a, n, len(tab.expiry))
	}

	restarted := newTestRig(t, ModeNonBlocking, func(c *Config) { c.Recovered2PC = export }).srv
	rtab := &restarted.twoPC
	rtab.pruneDecisions(35)
	if d, a, n := snapshot(rtab); d != 0 || a != 1 || n != 0 {
		t.Fatalf("imported, after cutoff 35: %d decided, %d aborted, %d done; want 0, 1, 0", d, a, n)
	}
}
