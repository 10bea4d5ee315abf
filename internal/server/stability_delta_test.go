package server

import (
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// These tests drive the round plane by hand (roundTick and the handlers, no
// background loop), so when a push leaves — on readiness, at the deadline, or
// not at all under the idle rule — is observable deterministically.

// quiet fails the test if the collector holds more than n casts of kind k
// after giving stragglers time to arrive.
func (c *castCollector) quiet(t *testing.T, k wire.Kind, n int) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	if got := len(c.byKind(k)); got != n {
		t.Fatalf("%d %v casts, want %d", got, k, n)
	}
}

func TestPushLeavesWhenEveryInputRefreshed(t *testing.T) {
	// Partition 2 at DC 0 in the 3×6×2 deployment: parent 0, child 5, peer
	// replica in DC 2 — three inputs besides its own entry.
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), deploy6(t))
	s, st := rig.srv, &rig.srv.stab
	parent := rig.peers[st.parent]
	child := st.children[0]
	st.markData() // keep the idle rule out of the picture

	// The own entry alone is not enough...
	s.applyTick()
	parent.quiet(t, wire.KindGSTUp, 0)
	// ...nor with the peer replica's: the child is still missing.
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900, 0)})
	parent.quiet(t, wire.KindGSTUp, 0)
	// The last input releases the push at once, without a tick.
	st.handleUp(child, wire.GSTUp{Min: hlc.New(800, 0), Oldest: hlc.New(5, 0)})
	up := parent.waitKind(t, wire.KindGSTUp, 1)[0].(wire.GSTUp)
	if up.Min != hlc.New(800, 0) || !up.Active {
		t.Fatalf("push = %+v, want the child's 800.0 as minimum, active", up)
	}

	// One push per round: inputs that refresh again before the next own tick
	// do not buy a second one, and the tick after a round that pushed is no
	// deadline.
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(910, 0)})
	st.handleUp(child, wire.GSTUp{Min: hlc.New(850, 0)})
	parent.quiet(t, wire.KindGSTUp, 1)
	rig.clk.Advance(5 * time.Millisecond)
	s.applyTick() // completes the second round: every input is fresh again
	up = parent.waitKind(t, wire.KindGSTUp, 2)[1].(wire.GSTUp)
	if up.Min != hlc.New(850, 0) {
		t.Fatalf("second push Min = %v, want 850.0", up.Min)
	}
	parent.quiet(t, wire.KindGSTUp, 2)
}

func TestDeadlinePushWhenAnInputIsMissing(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), deploy6(t))
	s, st := rig.srv, &rig.srv.stab
	parent := rig.peers[st.parent]
	st.markData()

	// The child never reports. The round that could not complete pushes at
	// the next own tick, every round, exactly once — with what is there: the
	// silent child keeps the minimum at 0.
	s.applyTick()
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900, 0)})
	parent.quiet(t, wire.KindGSTUp, 0)
	for round := 1; round <= 3; round++ {
		s.applyTick()
		s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+uint64(round), 0)})
		up := parent.waitKind(t, wire.KindGSTUp, round)[round-1].(wire.GSTUp)
		if up.Min != 0 {
			t.Fatalf("round %d: Min = %v with a silent child, want 0", round, up.Min)
		}
		parent.quiet(t, wire.KindGSTUp, round)
	}

	// A recovery hold refreshes no own entry: deadline pushes only.
	held := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 5), deploy6(t),
		func(c *Config) { c.RecoveryHold = time.Hour })
	held.srv.holdUntil = time.Now().Add(time.Hour) // what Start would set
	held.srv.stab.markData()
	for round := 0; round < 3; round++ {
		held.srv.applyTick()
		held.srv.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+uint64(round), 0)})
	}
	held.peers[held.srv.stab.parent].quiet(t, wire.KindGSTUp, 2)
	if vv := held.srv.VersionVector()[0]; vv != 0 {
		t.Fatalf("own entry moved to %v during the hold", vv)
	}
}

func TestLostGSTUpDelaysThatRoundOnly(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), deploy6(t))
	s, st := rig.srv, &rig.srv.stab
	parent := rig.peers[st.parent]
	child := st.children[0]
	st.markData()
	round := func(n uint64, childReports bool) {
		s.applyTick()
		s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+n, 0)})
		if childReports {
			st.handleUp(child, wire.GSTUp{Min: hlc.New(800+n, 0)})
		}
	}

	round(1, true)
	parent.waitKind(t, wire.KindGSTUp, 1)
	// Round 2's GSTUp from the child is lost: no push until the deadline...
	round(2, false)
	parent.quiet(t, wire.KindGSTUp, 1)
	// ...which is the next tick. Round 3 then completes on readiness again,
	// the moment the child's next GSTUp is in.
	s.applyTick()
	if late := parent.waitKind(t, wire.KindGSTUp, 2)[1].(wire.GSTUp); late.Min != hlc.New(801, 0) {
		t.Fatalf("deadline push Min = %v, want the child's last word 801.0", late.Min)
	}
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(903, 0)})
	parent.quiet(t, wire.KindGSTUp, 2)
	st.handleUp(child, wire.GSTUp{Min: hlc.New(803, 0)})
	if up := parent.waitKind(t, wire.KindGSTUp, 3)[2].(wire.GSTUp); up.Min != hlc.New(803, 0) {
		t.Fatalf("push after the loss Min = %v, want 803.0", up.Min)
	}
}

func TestGossipIntervalStretchesTheRound(t *testing.T) {
	// ΔG = 3·ΔR: one push every third tick, however often the inputs refresh.
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 5), deploy6(t), func(c *Config) {
		c.ApplyInterval = 5 * time.Millisecond
		c.GossipInterval = 15 * time.Millisecond
	})
	s, st := rig.srv, &rig.srv.stab
	st.markData()
	for tick := 0; tick < 12; tick++ {
		s.applyTick()
		s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+uint64(tick), 0)})
	}
	rig.peers[st.parent].quiet(t, wire.KindGSTUp, 4)
}

func TestGossipSuppressedWhenQuiescent(t *testing.T) {
	// Partition 2 at DC 0 is a non-root: its push goes to the DC-0 root. Its
	// peer replica never answers here, so every push is a deadline push.
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), func(c *Config) {
		c.ApplyInterval = 5 * time.Millisecond
		c.GossipIdleMax = 20 * time.Millisecond // 4 rounds
	})
	s := rig.srv
	st := &s.stab
	if st.isRoot {
		t.Fatal("partition 2 should have a parent in this topology")
	}
	parent := rig.peers[st.parent]

	// The first push always goes (nothing was ever pushed).
	s.applyTick()
	s.applyTick()
	first := parent.waitKind(t, wire.KindGSTUp, 1)[0].(wire.GSTUp)
	if first.Active {
		t.Fatalf("first push = %+v, want inactive", first)
	}

	// No activity: the next three rounds' pushes are withheld, the fourth
	// goes — one per GossipIdleMax.
	for i := 0; i < 3; i++ {
		s.applyTick()
	}
	if got := s.Metrics().GossipSuppressed; got < 3 {
		t.Fatalf("GossipSuppressed = %d, want one for each of the 3 rounds at least", got)
	}
	parent.quiet(t, wire.KindGSTUp, 1)
	s.applyTick()
	parent.waitKind(t, wire.KindGSTUp, 2)

	// Data activity makes the very next round push, with the Active bit set,
	// and every round after it while the window lasts.
	st.markData()
	s.applyTick()
	s.applyTick()
	ups := parent.waitKind(t, wire.KindGSTUp, 4)
	if third := ups[2].(wire.GSTUp); !third.Active {
		t.Fatalf("active push = %+v, want active", third)
	}
}

func TestParentsActiveBitReleasesHeldPush(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 5), deploy6(t)) // a leaf
	s, st := rig.srv, &rig.srv.stab
	parent := rig.peers[st.parent]
	round := func(n uint64) {
		s.applyTick()
		s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+n, 0)})
	}
	round(1)
	parent.waitKind(t, wire.KindGSTUp, 1) // the first push always goes

	// Idle, the next round's push is held although every input is in...
	round(2)
	parent.quiet(t, wire.KindGSTUp, 1)
	// ...and leaves the moment the parent relays activity, not a round later.
	st.handleDown(st.parent, wire.USTDown{UST: hlc.New(1, 0), Active: true})
	if up := parent.waitKind(t, wire.KindGSTUp, 2)[1].(wire.GSTUp); up.Active {
		t.Fatalf("push = %+v: a relayed bit must not be advertised up-tree", up)
	}
	// Still one push per round.
	st.handleDown(st.parent, wire.USTDown{UST: hlc.New(2, 0), Active: true})
	parent.quiet(t, wire.KindGSTUp, 2)
}

func TestActiveBitMarksReceiverActive(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 0))
	st := &rig.srv.stab
	if st.activeNow() {
		t.Fatal("fresh server counts as active")
	}
	st.handleUp(st.children[0], wire.GSTUp{Active: true})
	if !st.activeNow() || !st.upActive() {
		t.Fatal("Active GSTUp did not mark the receiver active")
	}
	// The window is counted in rounds and runs out.
	for i := int64(0); i < activeWindowMult*st.upEvery; i++ {
		st.roundTick(false)
	}
	if st.activeNow() {
		t.Fatal("still active after the window")
	}
}

func TestHandleDownActivePropagates(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), deploy6(t))
	s := rig.srv
	msg := wire.USTDown{UST: hlc.New(70, 0), Sold: hlc.New(60, 0), Active: true}
	s.stab.handleDown(s.stab.parent, msg)
	if !s.stab.activeNow() {
		t.Fatal("Active USTDown did not mark the receiver active")
	}
	if s.stab.upActive() {
		t.Fatal("a relayed Down bit re-armed the up-tree advertisement")
	}
	// The bit survives the forward so it cascades to the leaves.
	for _, child := range s.stab.children {
		got := rig.peers[child].waitKind(t, wire.KindUSTDown, 1)[0].(wire.USTDown)
		if got != msg {
			t.Fatalf("forwarded %+v, want %+v", got, msg)
		}
	}
}

func TestUSTDownSuppressedWhenQuiescent(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 0))
	s := rig.srv
	st := &s.stab
	if !st.isRoot || len(st.children) == 0 {
		t.Fatal("partition 0 must be DC 0's root with children")
	}
	st.mu.Lock()
	st.dcMin[0], st.dcOldest[0] = hlc.New(10, 0), hlc.New(10, 0)
	st.dcMin[1], st.dcOldest[1] = hlc.New(15, 0), hlc.New(15, 0)
	st.dcMin[2], st.dcOldest[2] = hlc.New(12, 0), hlc.New(12, 0)
	st.mu.Unlock()

	st.takeUST()
	for _, child := range st.children {
		rig.peers[child].waitKind(t, wire.KindUSTDown, 1)
	}
	suppressedBefore := s.Metrics().GossipSuppressed

	// Same inputs, no activity: the down-push is withheld (the subtree
	// already holds these exact values), but the UST itself stays applied.
	st.takeUST()
	if got := s.Metrics().GossipSuppressed; got != suppressedBefore+1 {
		t.Fatalf("GossipSuppressed = %d, want %d", got, suppressedBefore+1)
	}
	for _, child := range st.children {
		rig.peers[child].quiet(t, wire.KindUSTDown, 1)
	}
	if s.UST() != hlc.New(10, 0) {
		t.Fatalf("UST = %v, want 10.0", s.UST())
	}
}

func TestPiggybackedStableValuesAdopted(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	s := rig.srv

	// ReplicateBatch carries the sender's published UST/Sold; the receiver
	// adopts them without waiting for the down-tree gossip.
	s.handleReplicateBatch(wire.ReplicateBatch{
		SrcDC: 1, UpTo: hlc.New(900, 0),
		UST: hlc.New(500, 0), Sold: hlc.New(400, 0),
	})
	if s.UST() != hlc.New(500, 0) || s.Sold() != hlc.New(400, 0) {
		t.Fatalf("batch piggyback not adopted: ust=%v sold=%v", s.UST(), s.Sold())
	}

	// ReplStatus likewise; stale values must not regress (applyStable is
	// monotonic).
	s.handleReplStatus(wire.ReplStatus{SrcDC: 1, UpTo: hlc.New(950, 0),
		UST: hlc.New(600, 0), Sold: hlc.New(450, 0)})
	s.handleReplStatus(wire.ReplStatus{SrcDC: 1, UpTo: hlc.New(960, 0),
		UST: hlc.New(100, 0), Sold: hlc.New(90, 0)})
	if s.UST() != hlc.New(600, 0) || s.Sold() != hlc.New(450, 0) {
		t.Fatalf("status piggyback wrong: ust=%v sold=%v", s.UST(), s.Sold())
	}

	// A zero UST means "no information" and adopts nothing.
	before := s.UST()
	s.handleReplicateBatch(wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(990, 0)})
	if s.UST() != before {
		t.Fatalf("zero piggyback moved UST to %v", s.UST())
	}
}
