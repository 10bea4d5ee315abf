package server

import (
	"math"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// These tests drive the round plane by hand (applyTick and the handlers with
// explicit round labels, no background loop), so when a push leaves — on
// readiness, as a liveness push, or not at all under the idle rule — is
// observable deterministically.

// quiet fails the test if the collector holds more than n casts of kind k
// after giving stragglers time to arrive.
func (c *castCollector) quiet(t *testing.T, k wire.Kind, n int) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	if got := len(c.byKind(k)); got != n {
		t.Fatalf("%d %v casts, want %d", got, k, n)
	}
}

// keepActive keeps the idle rule out of the picture: the node counts as active
// for good.
func (st *stabilizer) keepActive() { st.dataUntil.Store(math.MaxInt64) }

// labelled drives one node of the 3×6×2 deployment by hand: its own ticks,
// its peer replica's batches (from DC 2, UpTo 900+r) and its child's pushes
// (Min 800+r), each labelled with the round the caller names.
type labelled struct {
	t      *testing.T
	s      *Server
	st     *stabilizer
	parent *castCollector
}

func newLabelled(t *testing.T, id topology.NodeID, opts ...func(*Config)) labelled {
	rig := newTestRigAt(t, ModeNonBlocking, id, append([]func(*Config){deploy6(t)}, opts...)...)
	return labelled{t: t, s: rig.srv, st: &rig.srv.stab, parent: rig.peers[rig.srv.stab.parent]}
}

func (l labelled) tick(r int64) { l.s.applyTick(r) }

func (l labelled) peer(r int64, label uint64) {
	l.s.handleReplicateBatch(sequenced(l.s, wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+uint64(r), 0), Round: label}))
}

func (l labelled) child(r int64) {
	l.st.handleUp(l.st.children[0], wire.GSTUp{Min: hlc.New(800+uint64(r), 0), Round: uint64(r)})
}

// pushes waits for the n-th push and returns it; quiet then checks it is the
// last so far.
func (l labelled) pushes(n int) wire.GSTUp {
	l.t.Helper()
	up := l.parent.waitKind(l.t, wire.KindGSTUp, n)[n-1].(wire.GSTUp)
	l.parent.quiet(l.t, wire.KindGSTUp, n)
	return up
}

func TestPushLeavesWhenEveryInputRefreshed(t *testing.T) {
	// Partition 2 at DC 0 in the 3×6×2 deployment: parent 0, child 5, peer
	// replica in DC 2 — three inputs besides its own entry.
	l := newLabelled(t, topology.ServerID(0, 2))
	l.st.keepActive()

	// The own entry alone is not enough...
	l.tick(1)
	l.parent.quiet(t, wire.KindGSTUp, 0)
	// ...nor with the peer replica's: the child is still missing.
	l.peer(1, 1)
	l.parent.quiet(t, wire.KindGSTUp, 0)
	// The last input releases the push at once, labelled with its round.
	l.child(1)
	if up := l.pushes(1); up.Min != hlc.New(801, 0) || up.Round != 1 || !up.Active {
		t.Fatalf("push = %+v, want the child's 801.0 as minimum, round 1, active", up)
	}

	// One push per round: inputs that come in again for the same round do not
	// buy a second one...
	l.peer(1, 1)
	l.child(1)
	l.parent.quiet(t, wire.KindGSTUp, 1)
	// ...and when the next round's inputs are in before the node's own tick,
	// the tick is the input that completes it.
	l.peer(2, 2)
	l.child(2)
	l.parent.quiet(t, wire.KindGSTUp, 1)
	l.tick(2)
	if up := l.pushes(2); up.Min != hlc.New(802, 0) || up.Round != 2 {
		t.Fatalf("second push = %+v, want 802.0, round 2", up)
	}
}

// TestLateChildPushDoesNotLockTheParentARoundBehind: a child's round-k−1 push
// that lands after the parent's tick k goes up on arrival as round k−1, and
// round k still waits for the child's round-k push. A rule that decides
// readiness by arrival order ("refreshed since my last push") pushes at the
// tick with the child's stale value and takes the late arrival for round k's:
// a round behind that child for as long as the arrival order holds.
func TestLateChildPushDoesNotLockTheParentARoundBehind(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 2))
	l.st.keepActive()
	l.tick(1)
	l.peer(1, 1)
	l.child(1)
	l.pushes(1)

	// Round 2's child push is late: the parent's tick 3 comes first.
	l.tick(2)
	l.peer(2, 2)
	l.tick(3)
	l.parent.quiet(t, wire.KindGSTUp, 1)
	l.child(2)
	if up := l.pushes(2); up.Min != hlc.New(802, 0) || up.Round != 2 {
		t.Fatalf("late round's push = %+v, want the child's 802.0 as round 2", up)
	}
	// Round 3 is complete only with the child's round-3 push, not with the
	// peer's batch that follows the late one.
	l.peer(3, 3)
	l.parent.quiet(t, wire.KindGSTUp, 2)
	l.child(3)
	if up := l.pushes(3); up.Min != hlc.New(803, 0) || up.Round != 3 {
		t.Fatalf("round 3's push = %+v, want 803.0 as round 3", up)
	}
	// From then on every round's push carries the child's value of that round.
	for r := int64(4); r <= 6; r++ {
		l.tick(r)
		l.peer(r, uint64(r))
		l.child(r)
		if up := l.pushes(int(r)); up.Min != hlc.New(800+uint64(r), 0) || up.Round != uint64(r) {
			t.Fatalf("round %d's push = %+v, want %v as round %d", r, up, hlc.New(800+uint64(r), 0), r)
		}
	}
}

// TestBacklogOfRoundsCostsOnePushMore: rounds that arrive in a burst — a
// healed partition releasing queued pushes — do not cost a push each. Between
// two ticks a plane sends at most two pushes for rounds before its current
// one; the rest of the backlog leaves with the next tick's push, or with the
// push that completes the current round.
func TestBacklogOfRoundsCostsOnePushMore(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 2))
	l.st.keepActive()
	l.tick(1)
	l.peer(1, 1)
	l.child(1)
	l.pushes(1)
	for r := int64(2); r <= 4; r++ { // the child's pushes are held up
		l.tick(r)
		l.peer(r, uint64(r))
	}
	if up := l.pushes(2); up.Round != 1 { // tick 4: a liveness push
		t.Fatalf("liveness push = %+v, want round 1", up)
	}
	l.child(2)
	if up := l.pushes(3); up.Round != 2 {
		t.Fatalf("first backlog push = %+v, want round 2", up)
	}
	l.child(3) // a third push before the tick: held back
	l.parent.quiet(t, wire.KindGSTUp, 3)
	l.child(4) // ...unless it completes the current round
	if up := l.pushes(4); up.Round != 4 || up.Min != hlc.New(804, 0) {
		t.Fatalf("push completing the current round = %+v, want round 4 with 804.0", up)
	}

	// A backlog that stops short of the current round leaves at the tick.
	for r := int64(5); r <= 7; r++ {
		l.tick(r)
		l.peer(r, uint64(r))
	}
	l.pushes(5) // tick 7: liveness
	l.child(5)
	l.child(6)
	l.pushes(6)
	l.tick(8)
	if up := l.pushes(7); up.Round != 6 || up.Min != hlc.New(806, 0) {
		t.Fatalf("tick push = %+v, want the held-back round 6 with 806.0", up)
	}
}

// TestWANBatchAfterTheNextTickPushesOncePerRound: on a WAN the peer's batch
// for round k lands just after the receiver's tick k+1. The receiver pushes
// once per round, at the batch's arrival, carrying it — no liveness push in
// between.
func TestWANBatchAfterTheNextTickPushesOncePerRound(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 5)) // a leaf: own entry and peer only
	l.st.keepActive()
	l.tick(1)
	for r := int64(1); r <= 8; r++ {
		l.tick(r + 1)
		l.parent.quiet(t, wire.KindGSTUp, int(r-1))
		l.peer(r, uint64(r))
		if up := l.pushes(int(r)); up.Min != hlc.New(900+uint64(r), 0) || up.Round != uint64(r) {
			t.Fatalf("round %d's push = %+v, want the peer's %v as round %d", r, up, hlc.New(900+uint64(r), 0), r)
		}
	}
}

// TestSkewedLabelsPushOncePerRound: labels are compared only through minima,
// so a peer whose labels run a constant round behind or ahead of the
// receiver's costs nothing — one push per round, at the lagging input's
// arrival: the peer's batch when it is behind, the own tick when it is ahead.
func TestSkewedLabelsPushOncePerRound(t *testing.T) {
	behind := newLabelled(t, topology.ServerID(0, 5))
	behind.st.keepActive()
	for r := int64(2); r <= 7; r++ {
		behind.tick(r)
		behind.parent.quiet(t, wire.KindGSTUp, int(r-2))
		behind.peer(r, uint64(r-1))
		if up := behind.pushes(int(r - 1)); up.Min != hlc.New(900+uint64(r), 0) || up.Round != uint64(r-1) {
			t.Fatalf("behind, round %d: push = %+v, want the peer's %v as round %d", r, up, hlc.New(900+uint64(r), 0), r-1)
		}
	}

	ahead := newLabelled(t, topology.ServerID(0, 5))
	ahead.st.keepActive()
	ahead.tick(1)
	ahead.peer(1, 2)
	ahead.pushes(1)
	for r := int64(2); r <= 6; r++ {
		ahead.tick(r)
		if up := ahead.pushes(int(r)); up.Round != uint64(r) {
			t.Fatalf("ahead, round %d: push = %+v, want it at the tick as round %d", r, up, r)
		}
		ahead.peer(r, uint64(r+1))
		ahead.parent.quiet(t, wire.KindGSTUp, int(r))
	}
}

// TestRegressingLabelsStallNoLongerThanALivenessPush: a peer whose labels jump
// back (its clock stepped) stops completing the node's rounds, but only until
// the liveness push, which takes the lower label as its own; readiness pushes
// resume with the next label.
func TestRegressingLabelsStallNoLongerThanALivenessPush(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 5))
	l.st.keepActive()
	for r := int64(21); r <= 23; r++ {
		l.tick(r)
		l.peer(r, uint64(r))
		l.pushes(int(r - 20))
	}
	for r := int64(24); r <= 25; r++ {
		l.tick(r)
		l.peer(r, uint64(r-10))
		l.parent.quiet(t, wire.KindGSTUp, 3)
	}
	l.tick(26) // three ticks without a push
	if up := l.pushes(4); up.Round != 15 {
		t.Fatalf("liveness push = %+v, want it complete through the regressed round 15", up)
	}
	for r := int64(26); r <= 28; r++ {
		if r > 26 {
			l.tick(r)
		}
		l.peer(r, uint64(r-10))
		if up := l.pushes(int(r - 21)); up.Round != uint64(r-10) || up.Min != hlc.New(900+uint64(r), 0) {
			t.Fatalf("push after the liveness push = %+v, want round %d with the peer's %v", up, r-10, hlc.New(900+uint64(r), 0))
		}
	}
}

func TestDeadlinePushWhenAnInputIsMissing(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 2))
	l.st.keepActive()

	// The child never reports: no round completes. From the third tick on a
	// liveness push goes at every tick, exactly once, with what is there — the
	// silent child keeps the minimum at 0.
	for r := int64(1); r <= 6; r++ {
		l.tick(r)
		l.peer(r, uint64(r))
		if r < 3 {
			l.parent.quiet(t, wire.KindGSTUp, 0)
		} else if up := l.pushes(int(r - 2)); up.Min != 0 {
			t.Fatalf("round %d: Min = %v with a silent child, want 0", r, up.Min)
		}
	}

	// A recovery hold refreshes no own entry: liveness pushes only.
	held := newLabelled(t, topology.ServerID(0, 5), func(c *Config) { c.RecoveryHold = time.Hour })
	held.s.holdUntil = time.Now().Add(time.Hour) // what Start would set
	held.st.keepActive()
	for r := int64(1); r <= 6; r++ {
		held.tick(r)
		held.peer(r, uint64(r))
	}
	held.parent.quiet(t, wire.KindGSTUp, 4)
	if vv := held.s.VersionVector()[0]; vv != 0 {
		t.Fatalf("own entry moved to %v during the hold", vv)
	}
}

func TestLostGSTUpDelaysThatRoundOnly(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 2))
	l.st.keepActive()
	l.tick(1)
	l.peer(1, 1)
	l.child(1)
	l.pushes(1)
	// Round 2's GSTUp from the child is lost: no push for round 2...
	l.tick(2)
	l.peer(2, 2)
	l.parent.quiet(t, wire.KindGSTUp, 1)
	// ...and round 3 completes on readiness again, the moment the child's
	// round-3 push is in: the loss cost round 2 its push and nothing else.
	l.tick(3)
	l.peer(3, 3)
	l.parent.quiet(t, wire.KindGSTUp, 1)
	l.child(3)
	if up := l.pushes(2); up.Min != hlc.New(803, 0) || up.Round != 3 {
		t.Fatalf("push after the loss = %+v, want 803.0 as round 3", up)
	}
}

func TestGossipIntervalStretchesTheRound(t *testing.T) {
	// ΔG = 3·ΔR: one push per three rounds — those whose label crosses a
	// multiple of three — however often the inputs refresh.
	l := newLabelled(t, topology.ServerID(0, 5), func(c *Config) {
		c.ApplyInterval = 5 * time.Millisecond
		c.GossipInterval = 15 * time.Millisecond
	})
	l.st.keepActive()
	for r := int64(1); r <= 12; r++ {
		l.tick(r)
		l.peer(r, uint64(r))
	}
	ups := l.parent.waitKind(t, wire.KindGSTUp, 4)
	l.parent.quiet(t, wire.KindGSTUp, 4)
	for i, m := range ups {
		if up := m.(wire.GSTUp); up.Round != uint64(3*(i+1)) {
			t.Fatalf("push %d = %+v, want round %d", i, up, 3*(i+1))
		}
	}
}

func TestGossipSuppressedWhenQuiescent(t *testing.T) {
	// Partition 2 at DC 0 is a leaf under the DC-0 root. Its peer replica
	// never answers here, so no round completes and every push is a liveness
	// push.
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
	for r := int64(1); r <= 3; r++ {
		s.applyTick(r)
	}
	first := parent.waitKind(t, wire.KindGSTUp, 1)[0].(wire.GSTUp)
	if first.Active {
		t.Fatalf("first push = %+v, want inactive", first)
	}

	// No activity: the next three rounds' pushes are withheld, one count
	// each, and the fourth goes — one per GossipIdleMax.
	for r := int64(4); r <= 6; r++ {
		s.applyTick(r)
	}
	parent.quiet(t, wire.KindGSTUp, 1)
	if got := s.Metrics().GossipSuppressed; got != 3 {
		t.Fatalf("GossipSuppressed = %d, want one for each of the 3 rounds", got)
	}
	s.applyTick(7)
	parent.waitKind(t, wire.KindGSTUp, 2)

	// With the peer answering, each withheld push is re-evaluated at the tick
	// and again at the peer's batch, which completes the round: still one
	// count per withheld round.
	batch := func(r int64) {
		s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(900+uint64(r), 0), Round: uint64(r)}))
	}
	for r := int64(8); r <= 10; r++ {
		s.applyTick(r)
		batch(r)
	}
	parent.quiet(t, wire.KindGSTUp, 2)
	if got := s.Metrics().GossipSuppressed; got != 6 {
		t.Fatalf("GossipSuppressed = %d, want 6: one per withheld round", got)
	}
	s.applyTick(11)
	parent.waitKind(t, wire.KindGSTUp, 3)

	// Data activity makes every round push, with the Active bit set, while
	// the window lasts.
	st.markData()
	for r := int64(11); r <= 13; r++ {
		if r > 11 {
			s.applyTick(r)
		}
		batch(r)
		if up := parent.waitKind(t, wire.KindGSTUp, int(r-7))[r-8].(wire.GSTUp); !up.Active || up.Round != uint64(r) {
			t.Fatalf("active push = %+v, want active, round %d", up, r)
		}
	}
	parent.quiet(t, wire.KindGSTUp, 6)
}

func TestParentsActiveBitReleasesHeldPush(t *testing.T) {
	l := newLabelled(t, topology.ServerID(0, 5)) // a leaf
	round := func(r int64) {
		l.tick(r)
		l.peer(r, uint64(r))
	}
	round(1)
	l.parent.waitKind(t, wire.KindGSTUp, 1) // the first push always goes

	// Idle, the next round's push is held although every input is in...
	round(2)
	l.parent.quiet(t, wire.KindGSTUp, 1)
	// ...and leaves the moment the parent relays activity, not a round later.
	l.st.handleDown(l.st.parent, wire.USTDown{UST: hlc.New(1, 0), Active: true})
	if up := l.parent.waitKind(t, wire.KindGSTUp, 2)[1].(wire.GSTUp); up.Active || up.Round != 2 {
		t.Fatalf("push = %+v: want round 2, and a relayed bit must not be advertised up-tree", up)
	}
	// Still one push per round.
	l.st.handleDown(l.st.parent, wire.USTDown{UST: hlc.New(2, 0), Active: true})
	l.parent.quiet(t, wire.KindGSTUp, 2)
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
	for r := int64(1); r <= activeWindowMult*st.up.every; r++ {
		st.roundTick(r, false)
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
	s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{
		SrcDC: 1, UpTo: hlc.New(900, 0),
		UST: hlc.New(500, 0), Sold: hlc.New(400, 0),
	}))
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
	s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(990, 0)}))
	if s.UST() != before {
		t.Fatalf("zero piggyback moved UST to %v", s.UST())
	}
}
