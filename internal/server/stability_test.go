package server

import (
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

func TestStabilizerTreeShape(t *testing.T) {
	// 5 DCs × 45 partitions × RF 2 → 18 partitions per DC. The tree must be
	// a single binary tree per DC: one root, every other node has a parent,
	// child links mirror parent links.
	topo, err := topology.New(5, 45, 2)
	if err != nil {
		t.Fatal(err)
	}
	dc := topology.DCID(0)
	local := topo.PartitionsAt(dc)

	type nodeInfo struct {
		st *stabilizer
	}
	nodes := make(map[topology.NodeID]*nodeInfo)
	for _, p := range local {
		srv, err := New(Config{ID: topology.ServerID(dc, p), Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		nodes[srv.self] = &nodeInfo{st: &srv.stab}
	}

	roots := 0
	for id, n := range nodes {
		if n.st.isRoot {
			roots++
			if n.st.parent != (topology.NodeID{}) {
				t.Fatalf("root %v has a parent", id)
			}
			if len(n.st.remoteRoots) != 4 {
				t.Fatalf("root %v knows %d remote roots, want 4", id, len(n.st.remoteRoots))
			}
			continue
		}
		parent, ok := nodes[n.st.parent]
		if !ok {
			t.Fatalf("%v's parent %v not in DC", id, n.st.parent)
		}
		found := false
		for _, c := range parent.st.children {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent %v does not list child %v", n.st.parent, id)
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots in one DC", roots)
	}

	// Every node is reachable from the root (tree is connected).
	var root topology.NodeID
	for id, n := range nodes {
		if n.st.isRoot {
			root = id
		}
	}
	seen := map[topology.NodeID]bool{root: true}
	frontier := []topology.NodeID{root}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, c := range nodes[next].st.children {
			if !seen[c] {
				seen[c] = true
				frontier = append(frontier, c)
			}
		}
	}
	if len(seen) != len(nodes) {
		t.Fatalf("tree reaches %d of %d nodes", len(seen), len(nodes))
	}
}

// deploy6 swaps the rig's 3×3×2 deployment for the benchmark's 3×6×2, whose
// DC trees have a middle level: in DC 0, partition 0 is the root, 2 and 3 are
// its children and 5 hangs under 2.
func deploy6(t *testing.T) func(*Config) {
	t.Helper()
	topo, err := topology.New(3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	return func(c *Config) { c.Topology = topo }
}

// takeUp takes the up plane's push by hand and returns what it would send
// (due whatever the labels say, and marked active, so the idle rule never
// withholds it).
func (st *stabilizer) takeUp() stabSends {
	var out stabSends
	st.markData()
	st.mu.Lock()
	st.up.stall = livenessTicks * st.up.every
	st.pushUpLocked(&out, true)
	st.mu.Unlock()
	return out
}

// takeUST runs the root's UST computation by hand, due whatever the labels
// say, and applies the outcome.
func (st *stabilizer) takeUST() {
	var out stabSends
	st.mu.Lock()
	st.ust.stall = livenessTicks * st.ust.every
	st.computeUSTLocked(&out, true)
	st.mu.Unlock()
	st.send(&out)
}

func TestLocalContributionShape(t *testing.T) {
	// Partition 2 lives in DCs 2 and 0; at DC 0 it is a leaf under the root.
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2))
	s := rig.srv
	s.handleReplicateBatch(sequenced(s, wire.ReplicateBatch{SrcDC: 2, UpTo: hlc.New(7, 0), Round: uint64(s.stab.round.Load())}))

	up := s.stab.takeUp().upMsg
	if up.Min != 0 {
		t.Fatalf("Min = %v, want 0 (nothing applied: the own entry is 0)", up.Min)
	}
	// No running transactions: oldest falls back to the server's UST.
	if up.Oldest != s.UST() {
		t.Fatalf("oldest %v, want ust %v", up.Oldest, s.UST())
	}
	// Once the own entry has moved, the peer replica's is the minimum — the
	// entry for DC 1, where the partition is not replicated, is undefined
	// and never constrains it.
	s.nextRound()
	if up = s.stab.takeUp().upMsg; up.Min != hlc.New(7, 0) {
		t.Fatalf("Min = %v, want 7.0", up.Min)
	}
}

func TestOldestTracksActiveTransactions(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2))
	s := rig.srv
	s.applyStable(hlc.New(100, 0), 0) // ust = 100
	resp := s.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	if oldest := s.stab.takeUp().upMsg.Oldest; oldest != resp.Snapshot {
		t.Fatalf("oldest %v, want active snapshot %v", oldest, resp.Snapshot)
	}
	s.handleFinishTx(wire.FinishTx{TxID: resp.TxID})
	if oldest := s.stab.takeUp().upMsg.Oldest; oldest != s.UST() {
		t.Fatalf("oldest %v after finish, want ust", oldest)
	}
}

func TestAggregateSubtreeWaitsForChildren(t *testing.T) {
	// A root whose children have not reported yet must aggregate to 0: a
	// silent subtree may still hold version vectors at 0.
	rig := newTestRig(t, ModeNonBlocking, deploy6(t))
	srv := rig.srv
	if len(srv.stab.children) != 2 {
		t.Fatalf("partition 0 has %d children in this topology, want 2", len(srv.stab.children))
	}
	srv.nextRound()
	srv.handleReplicateBatch(sequenced(srv, wire.ReplicateBatch{SrcDC: 1, UpTo: hlc.New(42, 0), Round: uint64(srv.stab.round.Load())}))
	if agg := srv.stab.takeUp().rootMsg; agg.Min != 0 || agg.Oldest != 0 {
		t.Fatalf("aggregate %+v before children reported, want 0/0", agg)
	}

	// After every child reports, the aggregate folds their minima.
	srv.applyStable(hlc.New(40, 0), 0)
	for _, child := range srv.stab.children {
		srv.stab.handleUp(child, wire.GSTUp{Min: hlc.New(50, 0), Oldest: hlc.New(30, 0)})
	}
	agg := srv.stab.takeUp().rootMsg
	if agg.Min != hlc.New(42, 0) { // min(own clock, peer 42, children 50)
		t.Fatalf("Min = %v, want 42.0", agg.Min)
	}
	if agg.Oldest != hlc.New(30, 0) { // min(own ust 40, children 30)
		t.Fatalf("Oldest = %v, want 30.0", agg.Oldest)
	}
}

// (Named after the ΔU ticker that used to drive the computation; it runs on
// arrival now, and at the root's tick only as a round's deadline.)
func TestUSTTickRequiresAllParticipants(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	srv := rig.srv
	st := &srv.stab
	if !st.isRoot {
		t.Fatal("partition 0 must be DC 0's root")
	}

	// Own DC aggregate known, remote DCs silent → UST must not move.
	st.mu.Lock()
	st.dcMin[0], st.dcOldest[0] = hlc.New(10, 0), hlc.New(10, 0)
	st.mu.Unlock()
	st.takeUST()
	if srv.UST() != 0 {
		t.Fatalf("UST advanced to %v with missing participants", srv.UST())
	}
	// The announcement goes down anyway — it is how the root's Active bit
	// reaches a subtree whose reports may be what the UST is waiting for.
	for _, child := range st.children {
		if down := rig.peers[child].waitKind(t, wire.KindUSTDown, 1)[0].(wire.USTDown); down.UST != 0 {
			t.Fatalf("announced UST %v with missing participants", down.UST)
		}
	}

	// All participants report round 1 → UST = global minimum, computed on
	// arrival of the last one: no tick is needed.
	st.mu.Lock()
	st.dcRound[0] = 1
	st.mu.Unlock()
	st.handleRoot(st.remoteRoots[0], wire.GSTRoot{DC: 1, Min: hlc.New(15, 0), Oldest: hlc.New(15, 0), Round: 1})
	if srv.UST() != 0 {
		t.Fatalf("UST advanced to %v with one participant missing", srv.UST())
	}
	st.handleRoot(st.remoteRoots[1], wire.GSTRoot{DC: 2, Min: hlc.New(12, 0), Oldest: hlc.New(9, 0), Round: 1})
	if srv.UST() != hlc.New(10, 0) {
		t.Fatalf("UST = %v, want 10.0 (global min)", srv.UST())
	}
	if srv.Sold() != hlc.New(9, 0) {
		t.Fatalf("Sold = %v, want 9.0", srv.Sold())
	}
	st.markData() // or the second announcement in a row would be withheld
	st.takeUST()
	for _, child := range st.children {
		downs := rig.peers[child].waitKind(t, wire.KindUSTDown, 2)
		if down := downs[len(downs)-1].(wire.USTDown); down.UST != hlc.New(10, 0) || !down.Active {
			t.Fatalf("announced %+v, want UST 10.0, active", down)
		}
	}
}

func TestUSTMonotonicUnderStaleGossip(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking)
	srv := rig.srv
	srv.applyStable(hlc.New(100, 0), hlc.New(90, 0))
	// A stale (lower) announcement must not regress either value.
	srv.applyStable(hlc.New(50, 0), hlc.New(40, 0))
	if srv.UST() != hlc.New(100, 0) || srv.Sold() != hlc.New(90, 0) {
		t.Fatalf("stale gossip regressed stable values: ust=%v sold=%v", srv.UST(), srv.Sold())
	}
}

func TestHandleDownForwardsToChildren(t *testing.T) {
	rig := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 2), deploy6(t))
	s := rig.srv
	if s.stab.isRoot || len(s.stab.children) == 0 {
		t.Fatal("partition 2 should sit between the root and a leaf in this topology")
	}
	msg := wire.USTDown{UST: hlc.New(70, 0), Sold: hlc.New(60, 0)}
	s.stab.handleDown(s.stab.parent, msg)
	if s.UST() != hlc.New(70, 0) {
		t.Fatalf("UST not applied: %v", s.UST())
	}
	for _, child := range s.stab.children {
		col := rig.peers[child]
		msgs := col.waitKind(t, wire.KindUSTDown, 1)
		if got := msgs[0].(wire.USTDown); got != msg {
			t.Fatalf("forwarded %+v, want %+v", got, msg)
		}
	}
}

// TestMalformedGossipIgnored: a stabilization message counts only from the
// neighbour whose word it is — a child's GSTUp, the GSTRoot of another
// participating DC's root about its own DC, the parent's USTDown. Anything
// else must neither be stored nor pass for a labelled input.
func TestMalformedGossipIgnored(t *testing.T) {
	rig := newTestRig(t, ModeNonBlocking, deploy6(t)) // DC 0's root
	s, st := rig.srv, &rig.srv.stab
	high := hlc.New(999, 0)

	st.handleUp(topology.ServerID(0, 5), wire.GSTUp{Min: high, Oldest: high, Round: 9})            // a grandchild
	st.handleUp(topology.ServerID(1, 1), wire.GSTUp{Min: high, Oldest: high, Round: 9})            // another DC's root
	st.handleRoot(st.remoteRoots[0], wire.GSTRoot{DC: 0, Min: high, Oldest: high, Round: 9})       // names the receiver's DC
	st.handleRoot(st.remoteRoots[0], wire.GSTRoot{DC: 2, Min: high, Oldest: high, Round: 9})       // names a third DC
	st.handleRoot(topology.ServerID(1, 3), wire.GSTRoot{DC: 1, Min: high, Oldest: high, Round: 9}) // not DC 1's root
	st.handleRoot(st.children[0], wire.GSTRoot{DC: 0, Min: high, Oldest: high, Round: 9})          // own child
	st.handleDown(st.children[0], wire.USTDown{UST: high, Sold: high})                             // a root has no parent
	st.handleDown(st.remoteRoots[0], wire.USTDown{UST: high, Sold: high})

	st.mu.Lock()
	for j := range st.children {
		if st.childMin[j] != 0 || st.childOldest[j] != 0 || st.childRound[j] != 0 {
			t.Errorf("child %d aggregate stored from a non-child", j)
		}
	}
	for dc := range st.dcMin {
		if st.dcMin[dc] != 0 || st.dcOldest[dc] != 0 || st.dcRound[dc] != 0 {
			t.Errorf("DC %d aggregate stored from the wrong sender", dc)
		}
	}
	st.mu.Unlock()
	if s.UST() != 0 || s.Sold() != 0 {
		t.Errorf("USTDown from a non-parent applied: ust=%v sold=%v", s.UST(), s.Sold())
	}

	// A non-root accepts USTDown from its parent only.
	leaf := newTestRigAt(t, ModeNonBlocking, topology.ServerID(0, 5), deploy6(t)).srv
	leaf.stab.handleDown(topology.ServerID(0, 0), wire.USTDown{UST: high, Sold: high}) // the root is its grandparent
	leaf.stab.handleRoot(topology.ServerID(1, 1), wire.GSTRoot{DC: 1, Min: high})      // and it is no root
	if leaf.UST() != 0 {
		t.Errorf("USTDown from a non-parent applied at the leaf: %v", leaf.UST())
	}
	leaf.stab.handleDown(leaf.stab.parent, wire.USTDown{UST: high, Sold: high})
	if leaf.UST() != high {
		t.Errorf("the parent's USTDown was not applied: %v", leaf.UST())
	}
}

// clockAt returns a manual clock source pinned at the given millisecond.
func clockAt(ms uint64) physicalAt { return physicalAt(ms) }

type physicalAt uint64

func (p physicalAt) NowMillis() uint64 { return uint64(p) }
