package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// TCPNode attaches one node to a real TCP network: it listens for inbound
// connections from peers and lazily dials one outbound connection per peer.
// Each outbound connection is written by a single goroutine, so every message
// to a peer — casts (replication, CohortCommit before a later AbortTx)
// included — keeps the FIFO order the protocol assumes, inherited from TCP
// itself.
//
// TCPNode implements Endpoint; unlike MemNet there is no central Network
// object because each node lives in its own process (see cmd/paris-server).
type TCPNode struct {
	self    topology.NodeID
	book    AddressBook
	handler Handler
	ln      net.Listener
	// dial opens outbound connections; a test swaps it to observe the bound.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu sync.Mutex
	// conns holds the outbound connection per peer, dialed lazily.
	conns   map[topology.NodeID]*tcpConn
	inbound map[net.Conn]*tcpConn
	// routes maps a peer to the write side of an inbound connection it
	// opened to us. Nodes absent from the address book — clients, which
	// listen on ephemeral ports unknown to servers — are answered over the
	// connection they dialed in on, standard RPC reverse routing.
	routes map[topology.NodeID]*tcpConn
	closed bool
	wg     sync.WaitGroup

	// Message counters, mirroring MemNet's so benchmarks can report
	// msgs/op and batching factors for real-TCP clusters too.
	sent        atomic.Uint64
	batches     atomic.Uint64
	batchedEnvs atomic.Uint64
	byKindMu    sync.Mutex
	byKind      map[wire.Kind]uint64
}

// AddressBook resolves node ids to dialable addresses.
type AddressBook interface {
	// Addr returns the "host:port" address of node id.
	Addr(id topology.NodeID) (string, error)
}

// StaticBook is a fixed node→address map.
type StaticBook map[topology.NodeID]string

// Addr implements AddressBook.
func (b StaticBook) Addr(id topology.NodeID) (string, error) {
	addr, ok := b[id]
	if !ok {
		return "", fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return addr, nil
}

// ListenTCP starts a node listening on listenAddr (e.g. ":7001"). The
// returned node delivers inbound envelopes to handler and must be closed by
// the caller.
func ListenTCP(self topology.NodeID, listenAddr string, book AddressBook, handler Handler) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	n := &TCPNode{
		self:    self,
		book:    book,
		handler: handler,
		ln:      ln,
		dial:    (&net.Dialer{}).DialContext,
		conns:   make(map[topology.NodeID]*tcpConn),
		inbound: make(map[net.Conn]*tcpConn),
		routes:  make(map[topology.NodeID]*tcpConn),
		byKind:  make(map[wire.Kind]uint64),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ListenAddr returns the bound listen address (useful with ":0").
func (n *TCPNode) ListenAddr() string { return n.ln.Addr().String() }

// countSend tallies one sent envelope (sent total + per-kind).
func (n *TCPNode) countSend(env *Envelope) {
	n.sent.Add(1)
	n.byKindMu.Lock()
	n.byKind[env.Msg.Kind()]++
	n.byKindMu.Unlock()
}

// MessagesSent returns the total envelopes accepted for sending.
func (n *TCPNode) MessagesSent() uint64 { return n.sent.Load() }

// BatchesSent returns the number of SendBatch wire writes accepted.
func (n *TCPNode) BatchesSent() uint64 { return n.batches.Load() }

// BatchedEnvelopes returns the total envelopes delivered via SendBatch.
// (They are also counted by MessagesSent and MessagesByKind, mirroring
// MemNet's accounting.)
func (n *TCPNode) BatchedEnvelopes() uint64 { return n.batchedEnvs.Load() }

// MessagesByKind returns a snapshot of per-kind send counts.
func (n *TCPNode) MessagesByKind() map[wire.Kind]uint64 {
	n.byKindMu.Lock()
	defer n.byKindMu.Unlock()
	out := make(map[wire.Kind]uint64, len(n.byKind))
	for k, v := range n.byKind {
		out[k] = v
	}
	return out
}

// Send implements Endpoint.
func (n *TCPNode) Send(env Envelope) error {
	env.From = n.self
	c, err := n.connOrRoute(&env)
	if err != nil {
		return err
	}
	n.countSend(&env)
	return c.enqueue(env)
}

// SendBatch implements BatchEndpoint: all envelopes (sharing one
// destination) are framed back-to-back into a single pooled buffer and
// handed to the connection's writer as one write, so a whole replication
// round costs one syscall and no per-message allocation.
func (n *TCPNode) SendBatch(envs []Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	for i := range envs {
		envs[i].From = n.self
	}
	c, err := n.connOrRoute(&envs[0])
	if err != nil {
		return err
	}
	n.sent.Add(uint64(len(envs)))
	n.batches.Add(1)
	n.batchedEnvs.Add(uint64(len(envs)))
	n.byKindMu.Lock()
	for i := range envs {
		n.byKind[envs[i].Msg.Kind()]++
	}
	n.byKindMu.Unlock()
	buf := wire.GetBuffer()
	for i := range envs {
		*buf = appendFrame(*buf, envs[i])
	}
	return c.enqueueBuf(buf)
}

// connOrRoute resolves the connection for an envelope's destination,
// falling back to the reverse route: the destination may have dialed us even
// though the address book cannot resolve it (clients).
func (n *TCPNode) connOrRoute(env *Envelope) (*tcpConn, error) {
	c, err := n.conn(env.To)
	if err != nil {
		n.mu.Lock()
		rc, ok := n.routes[env.To]
		n.mu.Unlock()
		if !ok {
			return nil, err
		}
		c = rc
	}
	return c, nil
}

// Close implements Endpoint: stops the listener, closes all connections and
// waits for the I/O goroutines.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*tcpConn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	// Inbound connections must be closed explicitly or their read loops
	// block in ReadFull until the remote side closes — which may itself be
	// waiting on us during an orderly shutdown.
	inbound := make([]*tcpConn, 0, len(n.inbound))
	for _, wc := range n.inbound {
		inbound = append(inbound, wc)
	}
	n.mu.Unlock()

	err := n.ln.Close()
	for _, c := range conns {
		c.close()
	}
	for _, wc := range inbound {
		wc.close()
	}
	n.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: closing listener: %w", err)
	}
	return nil
}

func (n *TCPNode) conn(to topology.NodeID) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()

	addr, err := n.book.Addr(to)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	raw, err := n.dial(ctx, "tcp", addr)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %v at %s: %w", to, addr, err)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = raw.Close()
		return nil, ErrClosed
	}
	if c, ok := n.conns[to]; ok { // lost the race; reuse the winner
		n.mu.Unlock()
		_ = raw.Close()
		return c, nil
	}
	c := newTCPConn(raw)
	n.conns[to] = c
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		c.writeLoop()
	}()
	// Outbound connections are read too: peers reply to requests over the
	// connection they arrived on (reverse routing).
	go func() {
		defer n.wg.Done()
		n.readLoop(raw, c)
	}()
	n.mu.Unlock()
	return c, nil
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The write side of an inbound connection serves as the reverse
		// route for replies to peers the address book cannot resolve.
		wc := newTCPConn(raw)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = raw.Close()
			return
		}
		n.inbound[raw] = wc
		n.mu.Unlock()
		n.wg.Add(2)
		go func() {
			defer n.wg.Done()
			wc.writeLoop()
		}()
		go func() {
			defer n.wg.Done()
			n.readLoop(raw, wc)
		}()
	}
}

func (n *TCPNode) readLoop(raw net.Conn, wc *tcpConn) {
	var from topology.NodeID
	defer func() {
		wc.close()
		n.mu.Lock()
		delete(n.inbound, raw)
		if n.routes[from] == wc {
			delete(n.routes, from)
		}
		// Evict a dead outbound connection so future sends redial it.
		for to, c := range n.conns {
			if c == wc {
				delete(n.conns, to)
			}
		}
		n.mu.Unlock()
	}()
	var header [4]byte
	// One frame buffer per connection, grown to the high-water mark and
	// reused for every message: wire.Decode copies strings and byte slices
	// out of the frame, so nothing delivered aliases it. This mirrors the
	// encode side's pooled buffers — steady-state receiving allocates only
	// the decoded message.
	var frame []byte
	for {
		if _, err := io.ReadFull(raw, header[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(header[:])
		if size > maxFrameSize {
			return // corrupt peer; drop the connection
		}
		if uint32(cap(frame)) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		if _, err := io.ReadFull(raw, frame); err != nil {
			return
		}
		env, err := decodeFrame(frame)
		if err != nil {
			return // corrupt, untagged or undecodable frame; drop the connection
		}
		if env.From != from {
			from = env.From
			n.mu.Lock()
			n.routes[from] = wc
			n.mu.Unlock()
		}
		env.To = n.self
		n.handler.Deliver(env)
		if cap(frame) > maxRetainedFrame {
			frame = nil // don't let one huge batch pin memory forever
		}
	}
}

// dialTimeout bounds opening an outbound connection. Sends run on the
// server's round (flow pumps, inquiries), so a blackholed peer must cost a
// bounded stall, not the kernel's connect timeout; the next send redials.
const dialTimeout = time.Second

// maxRetainedFrame caps the per-connection reusable read buffer; a frame
// above it is served by a one-off allocation instead (mirrors the encode
// pool's maxPooledCap).
const maxRetainedFrame = 4 << 20

// maxFrameSize bounds a single message on the wire (64 MiB, far above any
// legitimate PaRiS message).
const maxFrameSize = 64 << 20

// Frame layout after the uint32 length prefix:
//
//	from.DC  int32 | from.Index int32 | from.Role uint8 |
//	class uint8 | requestID uint64 | wire-encoded message
//
// The high bit of the class byte is the codec tag, set on every frame.
// Frames of the retired fixed-width codec lack it, so a receiver rejects an
// untagged frame and drops the connection instead of misreading its body.
const frameHeaderSize = 4 + 4 + 1 + 1 + 8

// frameTagBit is the codec tag in the class byte.
const frameTagBit = 0x80

// errUntaggedFrame reports a frame whose class byte lacks frameTagBit.
var errUntaggedFrame = fmt.Errorf("%w: frame without the codec tag", wire.ErrMalformed)

// appendFrame appends one length-prefixed frame to buf. Framing is
// append-into-caller-buffer all the way down (wire.AppendMessage), so a
// pooled buffer makes steady-state encoding allocation-free.
func appendFrame(buf []byte, env Envelope) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.From.DC))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(env.From.Index))
	buf = append(buf, byte(env.From.Role), byte(env.Class)|frameTagBit)
	buf = binary.LittleEndian.AppendUint64(buf, env.RequestID)
	buf = wire.AppendMessage(buf, env.Msg)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

func encodeFrame(env Envelope) []byte {
	return appendFrame(make([]byte, 0, 4+frameHeaderSize+64), env)
}

func decodeFrame(frame []byte) (Envelope, error) {
	if len(frame) < frameHeaderSize {
		return Envelope{}, wire.ErrTruncated
	}
	class := frame[9]
	if class&frameTagBit == 0 {
		return Envelope{}, errUntaggedFrame
	}
	env := Envelope{
		From: topology.NodeID{
			DC:    topology.DCID(int32(binary.LittleEndian.Uint32(frame[0:]))),
			Index: int32(binary.LittleEndian.Uint32(frame[4:])),
			Role:  topology.Role(frame[8]),
		},
		Class:     Class(class &^ frameTagBit),
		RequestID: binary.LittleEndian.Uint64(frame[10:]),
	}
	msg, err := wire.Decode(frame[frameHeaderSize:])
	if err != nil {
		return Envelope{}, err
	}
	env.Msg = msg
	return env, nil
}

// tcpConn is one outbound connection with a single writer goroutine feeding
// it from an unbounded FIFO queue. Queue entries are pooled encode buffers
// (wire.GetBuffer) holding one or more frames; the writer returns each to
// the pool after flushing it, so steady-state sending does not allocate.
type tcpConn struct {
	raw net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte
	closed bool
}

func newTCPConn(raw net.Conn) *tcpConn {
	c := &tcpConn{raw: raw}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *tcpConn) enqueue(env Envelope) error {
	buf := wire.GetBuffer()
	*buf = appendFrame(*buf, env)
	return c.enqueueBuf(buf)
}

// enqueueBuf takes ownership of a pooled buffer holding whole frames; it is
// recycled after the write (or dropped on a closed connection).
func (c *tcpConn) enqueueBuf(buf *[]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		wire.PutBuffer(buf)
		return ErrClosed
	}
	c.queue = append(c.queue, buf)
	c.cond.Signal()
	return nil
}

func (c *tcpConn) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	_ = c.raw.Close()
}

func (c *tcpConn) writeLoop() {
	// spare is the array drained last; the next drain hands it back as the
	// queue, so the two alternate and enqueueing stops allocating once both
	// have grown.
	var spare []*[]byte
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		batch := c.queue
		c.queue = spare
		c.mu.Unlock()

		for i, buf := range batch {
			_, err := c.raw.Write(*buf)
			wire.PutBuffer(buf)
			if err != nil {
				for _, rest := range batch[i+1:] {
					wire.PutBuffer(rest)
				}
				c.mu.Lock()
				c.closed = true
				c.mu.Unlock()
				return
			}
		}
		clear(batch) // the buffers went back to the pool; don't pin them
		spare = batch[:0]
	}
}

// Compile-time interface compliance.
var (
	_ Endpoint      = (*TCPNode)(nil)
	_ BatchEndpoint = (*TCPNode)(nil)
	_ AddressBook   = StaticBook(nil)
)
