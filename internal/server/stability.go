package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// This file implements the UST stabilization protocol (§III-B "UST", §IV-B
// "Stabilization protocol"). Within each data center the partitions form a
// binary tree; every node pushes the minimum of its own version vector and
// its children's aggregates toward the root. Roots exchange their per-DC
// aggregates, compute the universal stable time — the minimum version-vector
// entry anywhere in the system — and push it back down their trees. The same
// tree aggregates the oldest active transaction snapshot, which becomes the
// garbage-collection watermark Sold (§IV-B "Garbage collection").
//
// One round per server, no loop of its own. Every server's apply round starts
// at the same wall-clock multiple of ΔR (Server.Start) and ends by handing the
// stabilizer its advanced version-clock entry (roundTick). Each round owes the
// parent exactly one push, which leaves as soon as every input has refreshed
// since the previous one — the node's own entry, each peer replica's entry
// (advanceVV), each child's GSTUp — so an update climbs the tree, crosses the
// roots and comes back down in hop time instead of waiting out one timer phase
// per level. An input that is late, lost or dead cannot hold a round hostage:
// the node's next tick is the round's deadline and pushes whatever is there. A
// root sends its DC aggregate to the other roots the moment it is complete and
// recomputes the UST the moment a fresh aggregate from every participating DC
// is in (deadline: its next tick).
//
// None of this is a safety device (docs/INVARIANTS.md, stabilization rule):
// aggregates are minima of monotone cells, receivers always store, applyStable
// only ever advances. A push that is early, late, duplicated or lost can at
// worst leave the UST standing still, which is also what a dead child or a
// partitioned DC does (§III-C).
//
// Idle rule. Every message carries an Active bit. A server that applied or
// received data counts as active for activeWindowMult pushes, and the bit
// cascades through Up/Root/Down messages — acyclically: a node's outgoing
// GSTUp/GSTRoot bit derives only from its own data and its own subtree's bits,
// and the USTDown bit never feeds back into up-tree advertisements, or it
// would echo around the Up/Down/Root cycles forever. The rule is evaluated
// when a push is due: a node nothing has marked active lets it go at most once
// per Config.GossipIdleMax and otherwise holds it until the round's deadline.
// After a quiet spell deadline pushes carry the bit to the root past idle
// siblings, and a node the parent's bit wakes lets its held push go at once.
// UST/Sold additionally ride on replication traffic (ReplicateBatch, ReplStatus).

// activeWindowMult is how many pushes a server counts as data-active after
// the last observed write activity. Long enough to span a full up-root-down
// stabilization round with margin, short enough that a quiescent cluster goes
// quiet within a few tens of milliseconds at the default ΔG.
const activeWindowMult = 16

// pushGate times one plane's once-per-round push. Its inputs are numbered
// slots, of which total exist on this node; only those are ever refreshed.
type pushGate struct {
	fresh          []bool // per slot: refreshed since the last push
	total, missing int    // inputs; those not fresh yet
	fired          bool   // the current round's push has left
}

// newPushGate starts in the state a push leaves behind, so the first tick is
// nobody's deadline.
func newPushGate(slots, total int) pushGate {
	return pushGate{fresh: make([]bool, slots), total: total, missing: total, fired: true}
}

// refresh marks input i fresh and reports whether the round's push is due.
func (g *pushGate) refresh(i int) bool {
	if !g.fresh[i] {
		g.fresh[i] = true
		g.missing--
	}
	return g.missing == 0 && !g.fired
}

// pushed notes that the round's push left: every input is stale again.
func (g *pushGate) pushed() {
	clear(g.fresh)
	g.missing, g.fired = g.total, true
}

// stabilizer holds the per-server stabilization state. It is embedded in
// Server and shares its lifecycle; its own mutex guards only gossip state so
// gossip never contends with the transaction path.
type stabilizer struct {
	srv      *Server
	isRoot   bool
	parent   topology.NodeID // unless isRoot
	children []topology.NodeID
	// remoteRoots are the roots of the other DCs that host at least one
	// partition and hence take part in the UST exchange (roots only).
	remoteRoots []topology.NodeID

	// upEvery/ustEvery stretch a push round over that many ΔR ticks
	// (⌈ΔG/ΔR⌉, ⌈ΔU/ΔR⌉); idleEvery is GossipIdleMax in ticks.
	upEvery, ustEvery, idleEvery int64

	// round counts this server's ΔR ticks; it is the only clock the plane
	// reads. The four activity marks hold the round until which one *source*
	// of activity keeps the node active, separately so advertisements stay
	// acyclic: dataUntil is local data (applies, data-bearing replication
	// receives); subtreeUntil an Active bit from a child (GSTUp); remoteUntil
	// one from a remote DC root (GSTRoot, roots only); relayUntil one from the
	// parent direction (USTDown). All four keep the node pushing; only
	// data+subtree are re-advertised up-tree, and only data+subtree+remote
	// down-tree.
	round        atomic.Int64
	dataUntil    atomic.Int64
	subtreeUntil atomic.Int64
	remoteUntil  atomic.Int64
	relayUntil   atomic.Int64

	mu sync.Mutex
	// Up plane. Gate slots: one per DC id for the live version-vector entries
	// (the own DC's included), then one per child.
	up          pushGate
	childMin    []hlc.Timestamp // per child; 0 until it reports, as its entries may be
	childOldest []hlc.Timestamp
	lastUp      int64 // round of the last push that was not withheld
	// Root plane (roots only). Gate slots: one per DC id, for the own DC and
	// the remote roots'.
	ust      pushGate
	dcMin    []hlc.Timestamp // per DC id; 0 until it reports
	dcOldest []hlc.Timestamp
	lastDown int64
}

// init computes the server's position in its DC's aggregation tree.
func (st *stabilizer) init(s *Server) {
	st.srv = s
	topo, numDCs := s.cfg.Topology, s.cfg.Topology.NumDCs()
	rounds := func(d time.Duration) int64 { // ⌈d/ΔR⌉, at least one
		return max(1, int64((d+s.cfg.ApplyInterval-1)/s.cfg.ApplyInterval))
	}
	st.upEvery, st.ustEvery, st.idleEvery = rounds(s.cfg.GossipInterval), rounds(s.cfg.USTInterval), rounds(s.cfg.GossipIdleMax)
	st.lastUp, st.lastDown = -st.idleEvery, -st.idleEvery // the first push is never withheld

	local := topo.PartitionsAt(s.self.DC) // ascending
	idx := max(0, slices.Index(local, s.self.Partition()))
	st.isRoot = idx == 0
	if !st.isRoot {
		st.parent = topology.ServerID(s.self.DC, local[(idx-1)/2])
	}
	for _, c := range []int{2*idx + 1, 2*idx + 2} {
		if c < len(local) {
			st.children = append(st.children, topology.ServerID(s.self.DC, local[c]))
		}
	}
	st.childMin = make([]hlc.Timestamp, len(st.children))
	st.childOldest = make([]hlc.Timestamp, len(st.children))
	st.up = newPushGate(numDCs+len(st.children), len(topo.ReplicaDCs(s.self.Partition()))+len(st.children))
	if !st.isRoot {
		return
	}
	for _, dc := range topo.AllDCs() {
		// A DC with no partitions has no servers to gossip with.
		if ps := topo.PartitionsAt(dc); len(ps) > 0 && dc != s.self.DC {
			st.remoteRoots = append(st.remoteRoots, topology.ServerID(dc, ps[0]))
		}
	}
	st.ust = newPushGate(numDCs, len(st.remoteRoots)+1)
	st.dcMin = make([]hlc.Timestamp, numDCs)
	st.dcOldest = make([]hlc.Timestamp, numDCs)
}

// stabSends is what one stabilizer step decided to send, collected under
// st.mu and cast after it is released.
type stabSends struct {
	up, root, down bool
	upMsg          wire.GSTUp
	rootMsg        wire.GSTRoot
	downMsg        wire.USTDown // its UST, if any, is applied even when down is not set
}

func (st *stabilizer) send(o *stabSends) {
	s := st.srv
	if o.up {
		_ = s.peer.Cast(st.parent, o.upMsg)
		s.metrics.gossipSent.Add(1)
	}
	if o.root {
		var msg wire.Message = o.rootMsg // boxed once for every root
		for _, root := range st.remoteRoots {
			_ = s.peer.Cast(root, msg)
			s.metrics.gossipSent.Add(1)
		}
	}
	if o.downMsg.UST != 0 {
		s.applyStable(o.downMsg.UST, o.downMsg.Sold)
	}
	if o.down {
		st.pushDown(o.downMsg)
	}
}

// roundTick ends an apply round: own reports whether the round advanced the
// server's own version-clock entry (not during a recovery hold). The tick is
// the previous round's deadline — a push that never became ready leaves now —
// and the start of the next.
func (st *stabilizer) roundTick(own bool) {
	var out stabSends
	st.mu.Lock()
	r := st.round.Add(1)
	if r%st.upEvery == 0 {
		if !st.up.fired {
			st.pushUpLocked(&out)
		}
		st.up.fired = false
		if own && st.up.refresh(int(st.srv.self.DC)) {
			st.pushUpLocked(&out)
		}
	}
	if st.isRoot && r%st.ustEvery == 0 {
		if !st.ust.fired {
			st.computeUSTLocked(&out)
		}
		st.ust.fired = false
	}
	st.mu.Unlock()
	st.send(&out)
}

// vvRefreshed notes that a peer replica's version-vector entry was refreshed
// by its replication stream.
func (st *stabilizer) vvRefreshed(dc topology.DCID) {
	var out stabSends
	st.mu.Lock()
	if st.up.refresh(int(dc)) {
		st.pushUpLocked(&out)
	}
	st.mu.Unlock()
	st.send(&out)
}

// woken lets the round's push go if only the idle rule was holding it: the
// parent's Active bit has just arrived.
func (st *stabilizer) woken() {
	var out stabSends
	st.mu.Lock()
	if st.up.missing == 0 && !st.up.fired {
		st.pushUpLocked(&out)
	}
	st.mu.Unlock()
	st.send(&out)
}

// idleHold applies the idle rule to a push that is due: a node nothing marks
// active lets it go only every idleEvery rounds. last is the plane's last
// released push.
func (st *stabilizer) idleHold(last *int64) bool {
	r := st.round.Load()
	if !st.activeNow() && r-*last < st.idleEvery {
		st.srv.metrics.gossipSuppressed.Add(1)
		return true
	}
	*last = r
	return false
}

// pushUpLocked takes the up plane's push for this round: the minimum over the
// node's live version-vector entries and its children's aggregates goes to the
// parent; at the root it is the DC aggregate, which goes to the other roots
// and into the UST computation. The oldest active snapshot (or the server's
// UST when no transaction is running) rides along. Caller holds st.mu.
func (st *stabilizer) pushUpLocked(out *stabSends) {
	if st.idleHold(&st.lastUp) {
		return // the round stays open: a node woken before its deadline pushes then (woken)
	}
	st.up.pushed()
	s := st.srv
	// Version-vector entries and the UST are atomics; the context table is
	// visited shard by shard. The push never blocks — or is blocked by — the
	// client-operation path.
	low, oldest := s.installedLowerBound(), s.txCtx.minSnapshot(s.ust.Load())
	for j := range st.children {
		low, oldest = hlc.Min(low, st.childMin[j]), hlc.Min(oldest, st.childOldest[j])
	}
	if !st.isRoot {
		out.up, out.upMsg = true, wire.GSTUp{Active: st.upActive(), Min: low, Oldest: oldest}
		return
	}
	st.dcMin[s.self.DC], st.dcOldest[s.self.DC] = low, oldest
	out.root, out.rootMsg = true, wire.GSTRoot{DC: s.self.DC, Active: st.upActive(), Min: low, Oldest: oldest}
	if st.ust.refresh(int(s.self.DC)) {
		st.computeUSTLocked(out)
	}
}

// computeUSTLocked runs on roots only (Alg. 4 lines 36–38): the UST is the
// minimum entry across every DC's aggregate. A participating DC that has not
// reported yet holds the minimum at 0 and the UST cannot advance — which is
// also exactly the availability behaviour of §III-C: a partitioned DC freezes
// the UST everywhere. The announcement goes down all the same: it is also how
// the root's Active bit reaches the subtree whose reports the UST is waiting
// for. Caller holds st.mu.
func (st *stabilizer) computeUSTLocked(out *stabSends) {
	st.ust.pushed()
	own := st.srv.self.DC
	ust, sold := st.dcMin[own], st.dcOldest[own]
	for _, root := range st.remoteRoots {
		ust, sold = hlc.Min(ust, st.dcMin[root.DC]), hlc.Min(sold, st.dcOldest[root.DC])
	}
	// Idle, the subtree already holds these values or will get them with the
	// next replication batch.
	out.downMsg, out.down = wire.USTDown{UST: ust, Sold: sold, Active: st.downActive()}, !st.idleHold(&st.lastDown)
}

// noteActivity extends one activity mark by the active window.
func (st *stabilizer) noteActivity(until *atomic.Int64) {
	until.Store(st.round.Load() + activeWindowMult*st.upEvery)
}

// markData records local data activity (an apply or a data-bearing
// replication receive).
func (st *stabilizer) markData() { st.noteActivity(&st.dataUntil) }

func (st *stabilizer) fresh(until *atomic.Int64) bool {
	return st.round.Load() < until.Load()
}

// upActive is the bit advertised up-tree (GSTUp) and root-to-root (GSTRoot):
// this node or its subtree recently saw data. Received Down/Root bits are
// deliberately excluded — including them would close an advertisement cycle.
func (st *stabilizer) upActive() bool {
	return st.fresh(&st.dataUntil) || st.fresh(&st.subtreeUntil)
}

// downActive is the bit advertised down-tree (USTDown): any DC recently saw
// data. It terminates at the leaves (handleDown only keeps them pushing).
func (st *stabilizer) downActive() bool {
	return st.upActive() || st.fresh(&st.remoteUntil)
}

// activeNow reports whether any activity — local, subtree, remote, or
// relayed — was observed within the window. It drives the idle rule, never
// an advertised bit.
func (st *stabilizer) activeNow() bool {
	return st.downActive() || st.fresh(&st.relayUntil)
}

// handleUp stores a child's subtree aggregate. Only a child's word counts:
// anything else would overwrite nothing but could pass for a refreshed input.
func (st *stabilizer) handleUp(from topology.NodeID, m wire.GSTUp) {
	j := slices.Index(st.children, from)
	if j < 0 {
		return
	}
	if m.Active {
		st.noteActivity(&st.subtreeUntil)
	}
	var out stabSends
	st.mu.Lock()
	st.childMin[j], st.childOldest[j] = m.Min, m.Oldest
	if st.up.refresh(len(st.srv.vv) + j) {
		st.pushUpLocked(&out)
	}
	st.mu.Unlock()
	st.send(&out)
}

// handleRoot stores a remote DC root's aggregate. It must come from the root
// of the participating DC it names, and never name this root's own DC — that
// aggregate is the one it computed itself.
func (st *stabilizer) handleRoot(from topology.NodeID, m wire.GSTRoot) {
	if m.DC != from.DC || !slices.Contains(st.remoteRoots, from) {
		return
	}
	if m.Active {
		st.noteActivity(&st.remoteUntil)
	}
	var out stabSends
	st.mu.Lock()
	st.dcMin[m.DC], st.dcOldest[m.DC] = m.Min, m.Oldest
	if st.ust.refresh(int(m.DC)) {
		st.computeUSTLocked(&out)
	}
	st.mu.Unlock()
	st.send(&out)
}

// handleDown applies the parent's UST/Sold announcement and forwards it down
// the tree unconditionally — withholding is the root's decision only, so a
// forwarded announcement always reaches the leaves.
func (st *stabilizer) handleDown(from topology.NodeID, m wire.USTDown) {
	if st.isRoot || from != st.parent {
		return
	}
	st.srv.applyStable(m.UST, m.Sold)
	st.pushDown(m)
	if m.Active {
		// A relayed Down bit must never re-arm this node's own up-tree
		// advertisement, or the bit would circulate forever.
		st.noteActivity(&st.relayUntil)
		st.woken()
	}
}

func (st *stabilizer) pushDown(m wire.USTDown) {
	var msg wire.Message = m
	for _, child := range st.children {
		_ = st.srv.peer.Cast(child, msg)
		st.srv.metrics.gossipSent.Add(1)
	}
}

// applyStable folds freshly computed stable values into the server state.
// Both are forced monotonic: gossip rounds may arrive reordered relative to
// computation (ust mn ← max{minGST, ust mn}).
func (s *Server) applyStable(ust, sold hlc.Timestamp) {
	s.ust.advance(ust)
	s.sold.advance(sold)
	s.drainVisibility()
}
