package server

import (
	"math"
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
// at the same wall-clock multiple of ΔR (Server.runLoop), is labelled with that
// boundary's index and ends by handing the stabilizer the label (roundTick).
// Every input of a push is labelled with the round it came in for — the own
// entry with the tick's, a peer replica's entry with its last ReplicateBatch's,
// a child's aggregate with its last GSTUp's, the round that aggregate is
// complete through. A node pushes the moment the minimum label over its inputs
// passes the round it last pushed, carrying that minimum; a root sends its DC
// aggregate to the other roots the same way and recomputes the UST the moment
// the minimum over the DCs' aggregate labels passes the round it last computed.
// So an update climbs the tree, crosses the roots and comes back down in hop
// time, and a late input of round k−1 cannot pass for round k's.
//
// None of this is a safety device (docs/INVARIANTS.md, stabilization rule):
// aggregates are minima of monotone cells, receivers always store, applyStable
// only ever advances. Labels are compared only through minima, never against
// the receiver's own round: a stale, skewed or regressing label can only delay
// a push, and a push that is early, late, duplicated or lost can at worst leave
// the UST standing still, which is also what a dead child or a partitioned DC
// does (§III-C).
//
// Idle rule. Every message carries an Active bit. A server that applied or
// received data counts as active for activeWindowMult pushes, and the bit
// cascades through Up/Root/Down messages — acyclically: a node's outgoing
// GSTUp/GSTRoot bit derives only from its own data and its own subtree's bits,
// and the USTDown bit never feeds back into up-tree advertisements, or it
// would echo around the Up/Down/Root cycles forever. The rule is evaluated
// when a push is due: a node nothing has marked active lets it go at most once
// per Config.GossipIdleMax and otherwise holds it. After a quiet spell liveness
// pushes carry the bit to the root past idle siblings, and a node the parent's
// bit wakes lets its held push go at once.
// UST/Sold additionally ride on replication traffic (ReplicateBatch, ReplStatus).

// activeWindowMult is how many pushes a server counts as data-active after
// the last observed write activity. Long enough to span a full up-root-down
// stabilization round with margin, short enough that a quiescent cluster goes
// quiet within a few tens of milliseconds at the default ΔG.
const activeWindowMult = 16

// livenessTicks is how many push rounds a plane may go without completing one
// before it pushes what is there at every tick (a liveness push). Three: with
// two, a WAN batch landing just after the next tick sets it off every other
// round.
const livenessTicks = 3

// pushesPerTick caps a plane's pushes between two ticks for rounds before its
// current one, so a backlog of rounds arriving at once (a healed partition
// releasing queued batches) costs one push more, not one per round.
const pushesPerTick = 2

// plane is the round bookkeeping of one push: the up plane's (GSTUp, at a root
// GSTRoot) or the root plane's (UST computation and USTDown).
type plane struct {
	every int64 // one push per that many rounds (⌈ΔG/ΔR⌉, ⌈ΔU/ΔR⌉)
	done  int64 // the round the last push was complete through
	stall int64 // own ticks since the plane last completed a push round
	sent  int   // pushes since the last tick
	let   int64 // round of the last push the idle rule let go
	held  int64 // round of the last push it withheld, counted once
}

// ready: the inputs are complete through a later push round than the last push.
func (p *plane) ready(complete int64) bool { return complete/p.every > p.done/p.every }

// due: ready (for the current round or under pushesPerTick), or at a tick
// stalled for livenessTicks push rounds.
func (p *plane) due(complete, current int64, tick bool) bool {
	return p.ready(complete) && (complete >= current || p.sent < pushesPerTick) ||
		tick && p.stall >= livenessTicks*p.every
}

// pushed records a push complete through round complete.
func (p *plane) pushed(complete int64) {
	if p.ready(complete) {
		p.stall = 0
	}
	p.done = complete
	p.sent++
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

	// idleEvery is GossipIdleMax in ticks.
	idleEvery int64

	// round is the label of this server's last tick; it is the only clock the
	// plane reads. The four activity marks hold the round until which one
	// *source* of activity keeps the node active, separately so advertisements
	// stay acyclic: dataUntil is local data (applies, data-bearing replication
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
	// Up plane. Its inputs are the live version-vector entries, the own DC's
	// included, and the children's aggregates, each labelled with the round it
	// last came in for: vvRound per DC id (the own DC's is the last tick that
	// advanced vv[self]), childRound per child.
	up          plane
	vvRound     []int64
	childMin    []hlc.Timestamp // per child; 0 until it reports, as its entries may be
	childOldest []hlc.Timestamp
	childRound  []int64
	// Root plane (roots only). Its inputs are the DC aggregates, per DC id:
	// the own DC's and the remote roots'.
	ust      plane
	dcMin    []hlc.Timestamp // 0 until the DC reports
	dcOldest []hlc.Timestamp
	dcRound  []int64
}

// init computes the server's position in its DC's aggregation tree.
func (st *stabilizer) init(s *Server) {
	st.srv = s
	topo, numDCs := s.cfg.Topology, s.cfg.Topology.NumDCs()
	rounds := func(d time.Duration) int64 { // ⌈d/ΔR⌉, at least one
		return max(1, int64((d+s.cfg.ApplyInterval-1)/s.cfg.ApplyInterval))
	}
	st.idleEvery = rounds(s.cfg.GossipIdleMax)
	// The first push is never withheld.
	st.up = plane{every: rounds(s.cfg.GossipInterval), let: -st.idleEvery, held: -1}
	st.ust = plane{every: rounds(s.cfg.USTInterval), let: -st.idleEvery, held: -1}

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
	st.vvRound = make([]int64, numDCs)
	st.childMin = make([]hlc.Timestamp, len(st.children))
	st.childOldest = make([]hlc.Timestamp, len(st.children))
	st.childRound = make([]int64, len(st.children))
	if !st.isRoot {
		return
	}
	for _, dc := range topo.AllDCs() {
		// A DC with no partitions has no servers to gossip with.
		if ps := topo.PartitionsAt(dc); len(ps) > 0 && dc != s.self.DC {
			st.remoteRoots = append(st.remoteRoots, topology.ServerID(dc, ps[0]))
		}
	}
	st.dcMin = make([]hlc.Timestamp, numDCs)
	st.dcOldest = make([]hlc.Timestamp, numDCs)
	st.dcRound = make([]int64, numDCs)
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

// roundTick ends the apply round labelled round: own reports whether it
// advanced the server's own version-clock entry (not during a recovery hold).
// The tick counts against both planes' stall.
func (st *stabilizer) roundTick(round int64, own bool) {
	var out stabSends
	st.mu.Lock()
	st.round.Store(round)
	if own {
		st.vvRound[st.srv.self.DC] = round
	}
	st.up.stall, st.up.sent = st.up.stall+1, 0
	st.ust.stall, st.ust.sent = st.ust.stall+1, 0
	st.pushUpLocked(&out, true)
	if st.isRoot {
		st.computeUSTLocked(&out, true)
	}
	st.mu.Unlock()
	st.send(&out)
}

// vvRefreshed notes that a peer replica's version-vector entry was refreshed
// by its replication stream's batch for round.
func (st *stabilizer) vvRefreshed(dc topology.DCID, round int64) {
	st.mu.Lock()
	st.vvRound[dc] = round
	st.mu.Unlock()
	st.woken()
}

// woken re-evaluates the up plane: an input came in, or the parent's Active
// bit arrived and a push only the idle rule was holding may go.
func (st *stabilizer) woken() {
	var out stabSends
	st.mu.Lock()
	st.pushUpLocked(&out, false)
	st.mu.Unlock()
	st.send(&out)
}

// idleHold applies the idle rule to a push that is due: a node nothing marks
// active lets one go only every idleEvery rounds. However often a held push is
// re-evaluated, it counts as one suppression per round.
func (st *stabilizer) idleHold(p *plane) bool {
	r := st.round.Load()
	if st.activeNow() || r-p.let >= st.idleEvery {
		p.let = r
		return false
	}
	if p.held != r {
		p.held = r
		st.srv.metrics.gossipSuppressed.Add(1)
	}
	return true
}

// upComplete is the round the up plane's inputs are complete through.
func (st *stabilizer) upComplete() int64 {
	complete := int64(math.MaxInt64)
	for dc, live := range st.srv.vvLive {
		if live {
			complete = min(complete, st.vvRound[dc])
		}
	}
	for _, r := range st.childRound {
		complete = min(complete, r)
	}
	return complete
}

// pushUpLocked evaluates the up plane (tick: at the server's own tick) and
// takes its push if one is due: the minimum over the node's live
// version-vector entries and its children's aggregates goes to the parent; at
// the root it is the DC aggregate, which goes to the other roots and into the
// UST computation. The oldest active snapshot (or the server's UST when no
// transaction is running) rides along. Caller holds st.mu.
func (st *stabilizer) pushUpLocked(out *stabSends, tick bool) {
	complete := st.upComplete()
	if !st.up.due(complete, st.round.Load(), tick) || st.idleHold(&st.up) {
		return // a held push stays due: the next input, tick or wake-up takes it
	}
	st.up.pushed(complete)
	s := st.srv
	// Version-vector entries and the UST are atomics; the context table is
	// visited shard by shard. The push never blocks — or is blocked by — the
	// client-operation path.
	low, oldest := s.installedLowerBound(), s.txCtx.minSnapshot(s.ust.Load())
	for j := range st.children {
		low, oldest = hlc.Min(low, st.childMin[j]), hlc.Min(oldest, st.childOldest[j])
	}
	if !st.isRoot {
		out.up, out.upMsg = true, wire.GSTUp{Active: st.upActive(), Min: low, Oldest: oldest, Round: uint64(complete)}
		return
	}
	own := s.self.DC
	st.dcMin[own], st.dcOldest[own], st.dcRound[own] = low, oldest, complete
	out.root, out.rootMsg = true, wire.GSTRoot{DC: own, Active: st.upActive(), Min: low, Oldest: oldest, Round: uint64(complete)}
	st.computeUSTLocked(out, false)
}

// computeUSTLocked runs on roots only (Alg. 4 lines 36–38) and evaluates the
// root plane like pushUpLocked does the up plane: once every participating
// DC's aggregate is complete through a later round than the last computation
// was, the UST is the minimum entry across them. A participating DC that has
// not reported yet holds the minimum at 0 and the UST cannot advance — which
// is also exactly the availability behaviour of §III-C: a partitioned DC
// freezes the UST everywhere. The announcement goes down all the same: it is
// also how the root's Active bit reaches the subtree whose reports the UST is
// waiting for. Caller holds st.mu.
func (st *stabilizer) computeUSTLocked(out *stabSends, tick bool) {
	own := st.srv.self.DC
	complete := st.dcRound[own]
	for _, root := range st.remoteRoots {
		complete = min(complete, st.dcRound[root.DC])
	}
	if !st.ust.due(complete, st.round.Load(), tick) {
		return
	}
	st.ust.pushed(complete)
	ust, sold := st.dcMin[own], st.dcOldest[own]
	for _, root := range st.remoteRoots {
		ust, sold = hlc.Min(ust, st.dcMin[root.DC]), hlc.Min(sold, st.dcOldest[root.DC])
	}
	// Idle, the subtree already holds these values or will get them with the
	// next replication batch.
	out.downMsg, out.down = wire.USTDown{UST: ust, Sold: sold, Active: st.downActive()}, !st.idleHold(&st.ust)
}

// noteActivity extends one activity mark by the active window.
func (st *stabilizer) noteActivity(until *atomic.Int64) {
	until.Store(st.round.Load() + activeWindowMult*st.up.every)
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
// anything else would overwrite nothing but could pass for a labelled input.
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
	st.childMin[j], st.childOldest[j], st.childRound[j] = m.Min, m.Oldest, int64(m.Round)
	st.pushUpLocked(&out, false)
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
	st.dcMin[m.DC], st.dcOldest[m.DC], st.dcRound[m.DC] = m.Min, m.Oldest, int64(m.Round)
	st.computeUSTLocked(&out, false)
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
