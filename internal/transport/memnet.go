package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// MemNet is an in-process network that simulates the paper's geo-replicated
// deployment: every ordered pair of communicating nodes gets a dedicated
// lossless FIFO link whose delivery delay comes from a LatencyModel. Links
// between data centers can be partitioned and healed at runtime; a
// partitioned link queues traffic and releases it on heal, which is how a
// long TCP outage behaves from the protocol's point of view.
//
// For failure testing, individual directed links (or every link touching a
// node) can additionally be given an injected fault: FaultBlackhole silently
// discards traffic — the sender cannot tell, exactly like a one-way packet
// drop — while FaultError refuses the send, like a connection reset. Unlike
// SetPartitioned, faulted traffic is lost, not queued.
type MemNet struct {
	latency LatencyModel

	mu      sync.Mutex
	nodes   map[topology.NodeID]*memEndpoint
	links   map[linkKey]*memLink
	blocked map[dcPair]bool
	healed  *sync.Cond // broadcast when a partition heals or the net closes
	closed  bool
	wg      sync.WaitGroup

	faultMu    sync.Mutex
	linkFaults map[linkKey]LinkFault
	nodeFaults map[topology.NodeID]LinkFault
	slowLinks  map[linkKey]FaultSlowLink
	slowCount  atomic.Int32 // len(slowLinks); lets push skip faultMu when 0

	sent        atomic.Uint64
	batches     atomic.Uint64
	batchedEnvs atomic.Uint64
	dropped     atomic.Uint64
	byKindMu    sync.Mutex
	byKind      map[wire.Kind]uint64
}

// LinkFault selects an injected failure mode for a link.
type LinkFault uint8

const (
	// FaultNone delivers normally.
	FaultNone LinkFault = iota
	// FaultBlackhole accepts sends and silently discards them.
	FaultBlackhole
	// FaultError refuses sends with ErrLinkDown.
	FaultError
)

// ErrLinkDown reports a send refused by an injected FaultError.
var ErrLinkDown = errors.New("transport: link down (injected fault)")

// FaultSlowLink is the slow-link fault primitive: rather than dropping or
// refusing traffic it models a bandwidth-constrained WAN path. Rate is the
// link's serialization bandwidth in bytes/second — each envelope occupies
// the wire for size/Rate, and envelopes queue behind each other exactly as
// on a saturated uplink — and Delay is added propagation latency on top of
// the link's base latency. The zero value means unconstrained.
type FaultSlowLink struct {
	Rate  int
	Delay time.Duration
}

func (f FaultSlowLink) isZero() bool { return f.Rate <= 0 && f.Delay <= 0 }

type (
	linkKey struct{ from, to topology.NodeID }
	dcPair  struct{ a, b topology.DCID }
)

func orderedPair(a, b topology.DCID) dcPair {
	if a > b {
		a, b = b, a
	}
	return dcPair{a, b}
}

// NewMemNet builds a network with the given latency model (nil means
// ZeroLatency).
func NewMemNet(latency LatencyModel) *MemNet {
	if latency == nil {
		latency = ZeroLatency{}
	}
	n := &MemNet{
		latency:    latency,
		nodes:      make(map[topology.NodeID]*memEndpoint),
		links:      make(map[linkKey]*memLink),
		blocked:    make(map[dcPair]bool),
		linkFaults: make(map[linkKey]LinkFault),
		nodeFaults: make(map[topology.NodeID]LinkFault),
		slowLinks:  make(map[linkKey]FaultSlowLink),
		byKind:     make(map[wire.Kind]uint64),
	}
	n.healed = sync.NewCond(&n.mu)
	return n
}

// Register implements Network.
func (n *MemNet) Register(id topology.NodeID, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, ErrDuplicateNode
	}
	ep := &memEndpoint{net: n, id: id, handler: h}
	n.nodes[id] = ep
	return ep, nil
}

// Deregister removes a node from the network, modelling a process crash from
// the network's point of view: envelopes already queued toward it are dropped
// at delivery time (the nil-destination check in memLink.run) and new sends
// fail fast with ErrUnknownNode instead of disappearing silently. The id can
// be re-registered later — the restart half of a crash/restart episode.
func (n *MemNet) Deregister(id topology.NodeID) {
	n.mu.Lock()
	delete(n.nodes, id)
	n.mu.Unlock()
}

// Close implements Network. Queued envelopes are discarded.
func (n *MemNet) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for _, l := range n.links {
		l.close()
	}
	n.healed.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// SetPartitioned blocks (or unblocks) all traffic between data centers a and
// b. Blocked traffic is queued and delivered after healing, preserving FIFO.
func (n *MemNet) SetPartitioned(a, b topology.DCID, partitioned bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if partitioned {
		n.blocked[orderedPair(a, b)] = true
		return
	}
	delete(n.blocked, orderedPair(a, b))
	n.healed.Broadcast()
}

// IsolateDC partitions dc from every other data center (or heals all of its
// links when isolated is false). It models the paper's availability scenario
// (§III-C): "If a DC partitions from the rest of the system, then the UST
// freezes at all DCs."
func (n *MemNet) IsolateDC(dc topology.DCID, isolated bool, numDCs int) {
	for other := 0; other < numDCs; other++ {
		if topology.DCID(other) != dc {
			n.SetPartitioned(dc, topology.DCID(other), isolated)
		}
	}
}

// SetLinkFault injects (or with FaultNone clears) a fault on the directed
// link from→to. Envelopes already queued on the link are unaffected.
func (n *MemNet) SetLinkFault(from, to topology.NodeID, f LinkFault) {
	n.faultMu.Lock()
	if f == FaultNone {
		delete(n.linkFaults, linkKey{from: from, to: to})
	} else {
		n.linkFaults[linkKey{from: from, to: to}] = f
	}
	n.faultMu.Unlock()
}

// SetNodeFault injects (or with FaultNone clears) a fault on every link to or
// from node — FaultBlackhole models a crashed or unreachable process without
// tearing down its state, FaultError a process whose connections are refused.
func (n *MemNet) SetNodeFault(node topology.NodeID, f LinkFault) {
	n.faultMu.Lock()
	if f == FaultNone {
		delete(n.nodeFaults, node)
	} else {
		n.nodeFaults[node] = f
	}
	n.faultMu.Unlock()
}

// SetLinkSlow injects (or with the zero value clears) a slow-link fault on
// the directed link from→to. Unlike SetLinkFault, traffic still flows — it
// is just paced to the configured bandwidth and delayed. Clearing the fault
// heals the link the way SetPartitioned does: the serialization backlog is
// released and delivers at base latency, order preserved.
func (n *MemNet) SetLinkSlow(from, to topology.NodeID, f FaultSlowLink) {
	key := linkKey{from: from, to: to}
	n.faultMu.Lock()
	if f.isZero() {
		delete(n.slowLinks, key)
	} else {
		n.slowLinks[key] = f
	}
	n.slowCount.Store(int32(len(n.slowLinks)))
	n.faultMu.Unlock()
	if f.isZero() {
		n.releaseSlowBacklog(key)
	}
}

// ClearSlowLinks removes every slow-link fault and releases the backlogs.
func (n *MemNet) ClearSlowLinks() {
	n.faultMu.Lock()
	keys := make([]linkKey, 0, len(n.slowLinks))
	for k := range n.slowLinks {
		keys = append(keys, k)
		delete(n.slowLinks, k)
	}
	n.slowCount.Store(0)
	n.faultMu.Unlock()
	n.releaseSlowBacklog(keys...)
}

// releaseSlowBacklog re-times a healed link's queue: the constrained wire is
// gone, so envelopes it had scheduled far out deliver at base latency
// instead. FIFO is preserved — every rescheduled envelope gets the same
// future instant, and earlier entries only ever keep smaller times.
func (n *MemNet) releaseSlowBacklog(keys ...linkKey) {
	n.mu.Lock()
	links := make([]*memLink, 0, len(keys))
	for _, k := range keys {
		if l := n.links[k]; l != nil {
			links = append(links, l)
		}
	}
	n.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		l.nextFreeAt = time.Time{}
		//lint:ignore paris/ctxdeadline simulated-fabric delivery time; MemNet models link latency on the host clock by design, outside the protocol's clock abstraction
		at := time.Now().Add(l.delay)
		q := l.queue[l.head:]
		for i := range q {
			if q[i].deliverAt.After(at) {
				q[i].deliverAt = at
			}
		}
		l.cond.Signal()
		l.mu.Unlock()
	}
}

// slowFor returns the slow-link fault for a directed link (zero if none).
func (n *MemNet) slowFor(key linkKey) FaultSlowLink {
	if n.slowCount.Load() == 0 {
		return FaultSlowLink{}
	}
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	return n.slowLinks[key]
}

// faultFor resolves the effective fault for a directed send: an error fault
// anywhere on the path wins over a blackhole, which wins over none.
func (n *MemNet) faultFor(from, to topology.NodeID) LinkFault {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	f := n.linkFaults[linkKey{from: from, to: to}]
	for _, nf := range []LinkFault{n.nodeFaults[from], n.nodeFaults[to]} {
		if nf > f {
			f = nf
		}
	}
	return f
}

// DroppedMessages returns the number of envelopes discarded by blackhole
// faults.
func (n *MemNet) DroppedMessages() uint64 { return n.dropped.Load() }

// MessagesSent returns the total number of envelopes accepted for delivery;
// MessagesByKind breaks the count down by payload kind. The meta-data
// efficiency tests use these to compare protocol overheads.
func (n *MemNet) MessagesSent() uint64 { return n.sent.Load() }

// BatchesSent returns the number of SendBatch wire writes accepted, and
// BatchedEnvelopes the number of envelopes they carried: together they give
// the mean coalescing factor of the batch-aware transport path. (Envelopes in
// batches are also counted by MessagesSent and MessagesByKind.)
func (n *MemNet) BatchesSent() uint64 { return n.batches.Load() }

// BatchedEnvelopes returns the total envelopes delivered via SendBatch.
func (n *MemNet) BatchedEnvelopes() uint64 { return n.batchedEnvs.Load() }

// MessagesByKind returns a snapshot of per-kind send counts.
func (n *MemNet) MessagesByKind() map[wire.Kind]uint64 {
	n.byKindMu.Lock()
	defer n.byKindMu.Unlock()
	out := make(map[wire.Kind]uint64, len(n.byKind))
	for k, v := range n.byKind {
		out[k] = v
	}
	return out
}

func (n *MemNet) isBlocked(a, b topology.DCID) bool {
	return n.blocked[orderedPair(a, b)]
}

// send routes an envelope onto its link, creating the link on first use.
// Closed-network and unknown-destination errors take precedence over
// injected faults: a blackhole models a lossy link, not a broken shutdown
// path, so callers that stop on ErrClosed still see it.
func (n *MemNet) send(env Envelope) error {
	l, err := n.link(env.From, env.To)
	if err != nil {
		return err
	}
	switch n.faultFor(env.From, env.To) {
	case FaultError:
		return ErrLinkDown
	case FaultBlackhole:
		n.dropped.Add(1)
		return nil
	}

	n.sent.Add(1)
	n.byKindMu.Lock()
	n.byKind[env.Msg.Kind()]++
	n.byKindMu.Unlock()

	l.push(env)
	return nil
}

// sendBatch routes a batch of envelopes (all sharing one destination) onto
// their link in a single pass: one link lookup, one queue lock, one FIFO
// position — the in-memory analogue of TCP's one-framed-buffer write.
func (n *MemNet) sendBatch(envs []Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	l, err := n.link(envs[0].From, envs[0].To)
	if err != nil {
		return err
	}
	switch n.faultFor(envs[0].From, envs[0].To) {
	case FaultError:
		return ErrLinkDown
	case FaultBlackhole:
		n.dropped.Add(uint64(len(envs)))
		return nil
	}

	n.sent.Add(uint64(len(envs)))
	n.batches.Add(1)
	n.batchedEnvs.Add(uint64(len(envs)))
	n.byKindMu.Lock()
	for i := range envs {
		n.byKind[envs[i].Msg.Kind()]++
	}
	n.byKindMu.Unlock()

	l.pushAll(envs)
	return nil
}

// link returns the FIFO link from→to, creating it on first use.
func (n *MemNet) link(from, to topology.NodeID) (*memLink, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[to]; !ok {
		return nil, ErrUnknownNode
	}
	key := linkKey{from: from, to: to}
	l, ok := n.links[key]
	if !ok {
		l = newMemLink(n, key, n.latency.Delay(from, to))
		n.links[key] = l
		n.wg.Add(1)
		go l.run()
	}
	return l, nil
}

// memEndpoint implements Endpoint.
type memEndpoint struct {
	net     *MemNet
	id      topology.NodeID
	handler Handler
	closed  atomic.Bool
}

// Send implements Endpoint.
func (e *memEndpoint) Send(env Envelope) error {
	if e.closed.Load() {
		return ErrClosed
	}
	env.From = e.id
	return e.net.send(env)
}

// SendBatch implements BatchEndpoint.
func (e *memEndpoint) SendBatch(envs []Envelope) error {
	if e.closed.Load() {
		return ErrClosed
	}
	for i := range envs {
		envs[i].From = e.id
	}
	return e.net.sendBatch(envs)
}

// Close implements Endpoint. The node stops receiving; envelopes already
// queued toward it are dropped at delivery time.
func (e *memEndpoint) Close() error {
	e.closed.Store(true)
	return nil
}

func (e *memEndpoint) deliver(env Envelope) {
	if e.closed.Load() {
		return
	}
	e.handler.Deliver(env)
}

// memLink is one ordered FIFO channel. A dedicated goroutine delivers
// envelopes after the link's latency, stalling while the DC pair is
// partitioned.
type memLink struct {
	net   *MemNet
	key   linkKey
	delay time.Duration

	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] is the FIFO of undelivered envelopes. Popping advances
	// head and zeroes the slot, so a delivered envelope is not kept
	// reachable through the backing array; a drained queue rewinds to
	// queue[:0], so pushes reuse the array instead of reallocating it.
	queue  []timedEnvelope
	head   int
	closed bool
	// nextFreeAt is when the (slow-link-constrained) wire finishes
	// serializing everything accepted so far; the next envelope's
	// transmission starts no earlier.
	nextFreeAt time.Time
}

type timedEnvelope struct {
	env       Envelope
	deliverAt time.Time
}

func newMemLink(net *MemNet, key linkKey, delay time.Duration) *memLink {
	l := &memLink{net: net, key: key, delay: delay}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *memLink) push(env Envelope) {
	slow := l.net.slowFor(l.key)
	size := 0
	if slow.Rate > 0 {
		size = wire.ApproxSize(env.Msg)
	}
	l.mu.Lock()
	at := l.fifoAtLocked(l.deliverAtLocked(slow, size))
	l.appendLocked(timedEnvelope{env: env, deliverAt: at})
	l.cond.Signal()
	l.mu.Unlock()
}

// pushAll enqueues a batch under one lock acquisition; all envelopes share
// one delivery time, modelling a single wire write.
func (l *memLink) pushAll(envs []Envelope) {
	slow := l.net.slowFor(l.key)
	size := 0
	if slow.Rate > 0 {
		for i := range envs {
			size += wire.ApproxSize(envs[i].Msg)
		}
	}
	l.mu.Lock()
	at := l.fifoAtLocked(l.deliverAtLocked(slow, size))
	for _, env := range envs {
		l.appendLocked(timedEnvelope{env: env, deliverAt: at})
	}
	l.cond.Signal()
	l.mu.Unlock()
}

// appendLocked enqueues te. When the backing array is full and at least half
// of it is delivered slots, the undelivered tail moves to the front instead
// of the array growing: a link whose queue never drains (steady traffic over
// a latency) keeps a bounded array.
func (l *memLink) appendLocked(te timedEnvelope) {
	if len(l.queue) == cap(l.queue) && l.head > 0 && 2*l.head >= len(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, te)
}

// fifoAtLocked guards FIFO even if the wall clock misbehaves: delivery times
// never regress along the undelivered queue.
func (l *memLink) fifoAtLocked(at time.Time) time.Time {
	if n := len(l.queue); n > l.head && l.queue[n-1].deliverAt.After(at) {
		return l.queue[n-1].deliverAt
	}
	return at
}

// deliverAtLocked computes a send's delivery time: base link latency, plus —
// under a slow-link fault — the serialization time of everything ahead of it
// on the constrained wire and the fault's added propagation delay.
func (l *memLink) deliverAtLocked(slow FaultSlowLink, size int) time.Time {
	now := time.Now()
	if slow.isZero() {
		return now.Add(l.delay)
	}
	start := now
	if l.nextFreeAt.After(start) {
		start = l.nextFreeAt
	}
	if slow.Rate > 0 {
		start = start.Add(time.Duration(float64(size) / float64(slow.Rate) * float64(time.Second)))
	}
	l.nextFreeAt = start
	return start.Add(l.delay + slow.Delay)
}

func (l *memLink) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// slowPollSlice bounds how long the delivery loop commits to one sleep: a
// slow-link backlog scheduled far out must stay re-timeable by a heal, so
// long waits are sliced and the head's delivery time re-read between slices.
const slowPollSlice = 10 * time.Millisecond

func (l *memLink) run() {
	defer l.net.wg.Done()
	for {
		l.mu.Lock()
		for l.head == len(l.queue) && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		// Peek rather than pop: releaseSlowBacklog may pull the head's
		// delivery time in while we sleep.
		if wait := time.Until(l.queue[l.head].deliverAt); wait > 0 {
			l.mu.Unlock()
			time.Sleep(min(wait, slowPollSlice))
			continue
		}
		te := l.queue[l.head]
		l.queue[l.head] = timedEnvelope{}
		if l.head++; l.head == len(l.queue) {
			l.queue, l.head = l.queue[:0], 0
		}
		l.mu.Unlock()

		if !l.waitHealed() {
			return // network closed while partitioned
		}

		l.net.mu.Lock()
		dst := l.net.nodes[te.env.To]
		l.net.mu.Unlock()
		if dst != nil {
			dst.deliver(te.env)
		}
	}
}

// waitHealed blocks while the link's DC pair is partitioned. It returns false
// if the network closed in the meantime.
func (l *memLink) waitHealed() bool {
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.isBlocked(l.key.from.DC, l.key.to.DC) && !n.closed {
		n.healed.Wait()
	}
	return !n.closed
}

// Compile-time interface compliance.
var (
	_ Network       = (*MemNet)(nil)
	_ Endpoint      = (*memEndpoint)(nil)
	_ BatchEndpoint = (*memEndpoint)(nil)
)
