// Package transport connects PaRiS nodes through point-to-point, lossless,
// FIFO channels — the paper's communication assumption (§II-C). Two
// implementations share one interface: MemNet, an in-process simulated WAN
// with a configurable inter-DC latency matrix and fault injection, and
// TCPNet, a real network transport over stdlib TCP sockets.
//
// On top of raw envelope delivery, Peer layers the request/response pattern
// the protocol needs (2PC, reads) without ever blocking a link: responses are
// matched to pending calls by request id, so a server may answer a request
// from any goroutine at any later time (required by the blocking-read BPR
// baseline).
package transport

import (
	"errors"
	"fmt"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
)

// Class distinguishes the delivery semantics of an envelope.
type Class uint8

const (
	// ClassCast is a one-way message (replication, heartbeats, gossip).
	ClassCast Class = iota + 1
	// ClassRequest expects a ClassResponse with the same RequestID.
	ClassRequest
	// ClassResponse answers a ClassRequest.
	ClassResponse
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCast:
		return "cast"
	case ClassRequest:
		return "request"
	case ClassResponse:
		return "response"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Envelope is one message in flight between two nodes.
type Envelope struct {
	From      topology.NodeID
	To        topology.NodeID
	Class     Class
	RequestID uint64
	Msg       wire.Message
}

// Handler consumes inbound envelopes for one node. Deliver is invoked on the
// link's delivery goroutine in per-sender FIFO order; implementations must
// return promptly and move blocking work elsewhere, or the link stalls.
type Handler interface {
	Deliver(env Envelope)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Envelope)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(env Envelope) { f(env) }

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// Send enqueues env for delivery to env.To. It returns an error only if
	// the endpoint or network is closed or the destination cannot exist;
	// enqueued envelopes on a live network are delivered exactly once, in
	// per-link FIFO order.
	Send(env Envelope) error
	// Close detaches the endpoint. In-flight envelopes to other nodes are
	// still delivered.
	Close() error
}

// BatchEndpoint is implemented by endpoints that can flush several envelopes
// to one destination in a single wire write. All envelopes of a batch must
// share the same To; delivery order within the batch follows slice order and
// the batch as a whole keeps its FIFO position on the link. Callers that
// coalesce a round of traffic (the replication pipeline) probe for this
// interface and fall back to envelope-at-a-time Send.
type BatchEndpoint interface {
	Endpoint
	// SendBatch enqueues every envelope for delivery as one write. It is
	// all-or-nothing: on error none of the envelopes were enqueued.
	SendBatch(envs []Envelope) error
}

// Network registers endpoints and routes envelopes between them.
type Network interface {
	// Register attaches a node with its inbound handler and returns its
	// endpoint. Registering the same id twice is an error.
	Register(id topology.NodeID, h Handler) (Endpoint, error)
	// Close shuts the network down and waits for delivery goroutines.
	Close() error
}

// Errors shared by network implementations.
var (
	// ErrClosed reports use of a closed network or endpoint.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownNode reports a send to a node that was never registered.
	ErrUnknownNode = errors.New("transport: unknown destination node")
	// ErrDuplicateNode reports a second registration of a node id.
	ErrDuplicateNode = errors.New("transport: node already registered")
	// ErrNotSent marks a call whose request never left this node: the peer
	// refused it, or the endpoint's send failed synchronously. Peer.CallTimeout
	// wraps it around the underlying error. Any other call error leaves open
	// whether the request was delivered.
	ErrNotSent = errors.New("transport: request not sent")
)

// Compile-time interface compliance.
var _ Handler = HandlerFunc(nil)
