// Package client implements the PaRiS client protocol (Algorithm 1): the
// session state (ustc, hwtc), the private write cache WCc that preserves
// read-your-writes on top of the slightly stale stable snapshot, and the
// per-transaction write-set and read-set.
//
// A Client is a single session: one transaction at a time, one operation at
// a time (§II-C: "c does not issue the next operation until it receives the
// reply to the current one"). It is not safe for concurrent use; run one
// Client per goroutine, as the benchmark harness does.
package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// Errors returned by the client API.
var (
	// ErrNoTransaction reports an operation outside a transaction.
	ErrNoTransaction = errors.New("client: no transaction in progress")
	// ErrInTransaction reports a Start while a transaction is running.
	ErrInTransaction = errors.New("client: transaction already in progress")
)

// Mode mirrors the server's visibility protocol; it changes how the client
// maintains its session timestamp and whether the write cache is needed.
type Mode uint8

const (
	// ModeNonBlocking is PaRiS: session freshness via UST + write cache.
	ModeNonBlocking Mode = iota + 1
	// ModeBlocking is BPR: session freshness via observed timestamps;
	// the server blocks reads instead of the client caching writes.
	ModeBlocking
)

// Config parameterizes a client session.
type Config struct {
	// ID is the client's transport identity. Required.
	ID topology.NodeID
	// Coordinator is the server that will coordinate every transaction of
	// this session (clients attach to one partition in their local DC).
	Coordinator topology.NodeID
	// Mode must match the cluster's server mode. Default ModeNonBlocking.
	Mode Mode
	// DisableCache turns the private write cache off. Only meaningful in
	// ModeNonBlocking, where it deliberately re-introduces the
	// read-your-writes violations the cache exists to prevent (used by the
	// ablation experiments; never disable it in production).
	DisableCache bool
	// CallTimeout bounds each client-coordinator round trip. Default 60s.
	CallTimeout time.Duration
	// CacheBypass marks keys whose value is derived from the whole version
	// chain by a custom conflict resolver (counters, sets). Reads of such
	// keys always go to the server: the write-set/read-set/cache hold single
	// operations, not merged values, so returning them would be wrong. nil
	// bypasses nothing.
	CacheBypass func(key string) bool
}

// Stats counts client-side protocol events.
type Stats struct {
	TxStarted    uint64
	TxCommitted  uint64 // update transactions (non-empty write-set)
	TxReadOnly   uint64
	KeysRead     uint64
	KeysFromWS   uint64 // reads answered by the write-set
	KeysFromRS   uint64 // reads answered by the read-set (repeatable reads)
	KeysFromWC   uint64 // reads answered by the write cache
	KeysFromSrvr uint64 // reads answered by the data store
	CachePruned  uint64 // cache entries pruned by UST advance
	CachePeak    int    // high-water mark of cache size
}

// Client is one client session.
type Client struct {
	cfg  Config
	peer *transport.Peer

	ust hlc.Timestamp // ustc: highest stable snapshot observed
	hwt hlc.Timestamp // hwtc: commit time of the last update transaction

	cache map[string]wire.Item // WCc: own writes not yet in the stable snapshot

	inTx     bool
	txID     wire.TxID     // zero until the coordinator starts the transaction
	snapshot hlc.Timestamp // assigned together with txID
	// WSc and RSc. The maps outlive the transaction: Start empties them in
	// place, so the usual transaction allocates neither.
	ws map[string][]byte
	rs map[string]wire.Item

	stats Stats
}

// New builds a client session. Register its Peer on the network and attach
// the endpoint before use:
//
//	c := client.New(cfg)
//	ep, _ := net.Register(cfg.ID, c.Peer())
//	c.Peer().Attach(ep)
func New(cfg Config) (*Client, error) {
	if cfg.ID.Role != topology.RoleClient {
		return nil, fmt.Errorf("client: id %v is not a client identity", cfg.ID)
	}
	if cfg.Coordinator.Role != topology.RoleServer {
		return nil, fmt.Errorf("client: coordinator %v is not a server", cfg.Coordinator)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeNonBlocking
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 60 * time.Second
	}
	c := &Client{
		cfg:   cfg,
		cache: make(map[string]wire.Item),
	}
	c.peer = transport.NewPeer(cfg.ID, clientHandler{})
	return c, nil
}

// Peer returns the transport peer to register with a network.
func (c *Client) Peer() *transport.Peer { return c.peer }

// ID returns the session's node identity.
func (c *Client) ID() topology.NodeID { return c.cfg.ID }

// Coordinator returns the coordinating server's identity.
func (c *Client) Coordinator() topology.NodeID { return c.cfg.Coordinator }

// UST returns ustc, the freshest stable snapshot the session has observed.
func (c *Client) UST() hlc.Timestamp { return c.ust }

// HWT returns hwtc, the commit timestamp of the session's last update
// transaction (zero if none).
func (c *Client) HWT() hlc.Timestamp { return c.hwt }

// Snapshot returns the running transaction's snapshot timestamp: zero until
// the first Read or Commit that reaches the coordinator assigns it (Start is
// local), then fixed. After the transaction ends it keeps describing that
// transaction until the next Start.
func (c *Client) Snapshot() hlc.Timestamp { return c.snapshot }

// CacheSize returns the number of entries in the private write cache.
func (c *Client) CacheSize() int { return len(c.cache) }

// TxID returns the running transaction's identifier: zero until the first
// Read or Commit that reaches the coordinator assigns it, like Snapshot.
func (c *Client) TxID() wire.TxID { return c.txID }

// Observed returns the version metadata recorded in the read-set for key
// during the running transaction; consistency-checking harnesses use it to
// build verifiable histories. Like Snapshot, the read-set stays readable after
// the transaction ends, until the next Start.
func (c *Client) Observed(key string) (wire.Item, bool) {
	item, ok := c.rs[key]
	return item, ok
}

// Stats returns a copy of the session counters.
func (c *Client) Stats() Stats { return c.stats }

// Close releases transport resources.
func (c *Client) Close() { c.peer.Close() }

// Handoff is a session's portable causal state: the highest stable snapshot
// it observed (ustc), the commit timestamp of its last update transaction
// (hwtc), and the private write cache — its own writes not yet inside the
// stable snapshot. Exporting a Handoff from a session in one data center and
// importing it into a fresh client in another migrates the session: the
// target coordinator folds the carried UST into its own, the cache keeps
// serving the session's recent writes until the UST passes them, and both
// read-your-writes and causal ordering survive the move (§II-C's session
// guarantees are properties of this state, not of the original connection).
type Handoff struct {
	UST   hlc.Timestamp
	HWT   hlc.Timestamp
	Cache []wire.Item
}

// Export captures the session's causal state for migration. It refuses
// mid-transaction: the write-set and read-set are bound to a coordinator-side
// context that cannot move with the client.
func (c *Client) Export() (Handoff, error) {
	if c.inTx {
		return Handoff{}, ErrInTransaction
	}
	h := Handoff{UST: c.ust, HWT: c.hwt}
	if len(c.cache) > 0 {
		h.Cache = make([]wire.Item, 0, len(c.cache))
		for _, item := range c.cache {
			h.Cache = append(h.Cache, item)
		}
	}
	return h, nil
}

// Import folds a migrated session's causal state into this client. Timestamps
// only ever advance and cached versions merge by the store's version order,
// so importing into a session with history of its own is safe (the union of
// two causal pasts is a causal past).
func (c *Client) Import(h Handoff) error {
	if c.inTx {
		return ErrInTransaction
	}
	if h.UST > c.ust {
		c.ust = h.UST
	}
	if h.HWT > c.hwt {
		c.hwt = h.HWT
	}
	for _, item := range h.Cache {
		if cur, ok := c.cache[item.Key]; !ok || cur.Less(item) {
			c.cache[item.Key] = item
		}
	}
	if len(c.cache) > c.stats.CachePeak {
		c.stats.CachePeak = len(c.cache)
	}
	return nil
}

// Start begins a transaction locally; no message is sent. The coordinator
// starts its side — snapshot, transaction id, context (Alg. 1 lines 1–7 /
// Alg. 2 lines 1–5) — when the first Read or Commit reaches it, and that
// operation's response carries both back, so a transaction costs no round
// trip of its own. The context parameter is kept for callers written against
// the start round trip.
func (c *Client) Start(context.Context) error {
	if c.inTx {
		return ErrInTransaction
	}
	c.inTx = true
	c.txID, c.snapshot = 0, 0
	c.ws = resetSet(c.ws)
	c.rs = resetSet(c.rs)
	c.stats.TxStarted++
	return nil
}

// maxKeptSet caps the write-set/read-set size a session carries over to its
// next transaction: clear costs the map's capacity, so one huge transaction
// must not tax every later one.
const maxKeptSet = 1024

// resetSet empties a write-set or read-set for the next transaction, keeping
// its storage: a transaction of the usual shape then allocates neither map
// nor the buckets it would regrow.
func resetSet[V any](m map[string]V) map[string]V {
	if m == nil || len(m) > maxKeptSet {
		return make(map[string]V)
	}
	clear(m)
	return m
}

// adopt installs the transaction id and snapshot the coordinator assigned
// with the transaction's first operation, then prunes the write cache of
// entries the snapshot covers: they are inside the stable snapshot now and
// the store serves them.
func (c *Client) adopt(id wire.TxID, snapshot hlc.Timestamp) error {
	if id == 0 {
		return errors.New("client: coordinator did not start the transaction")
	}
	c.txID, c.snapshot = id, snapshot
	if snapshot > c.ust {
		c.ust = snapshot
	}
	for k, item := range c.cache {
		if item.UT <= c.ust {
			delete(c.cache, k)
			c.stats.CachePruned++
		}
	}
	return nil
}

// Read returns the values of keys visible to the transaction (Alg. 1 lines
// 8–20). Keys with no visible version map to no entry. The write-set,
// read-set and write cache are consulted first, in that order; remaining
// keys are fetched from the coordinator in one parallel round.
//
// The write cache is consulted only under a known snapshot. When this Read is
// the transaction's first operation the snapshot arrives with its response,
// so keys the cache holds are withheld from the request's key list and sent
// beside it with their cached update times: the coordinator, once it has fixed
// the snapshot, reads those the snapshot has passed — the entries the pruning
// is about to remove — and the response carries them with the rest. An entry
// that survives the pruning is the session's own write, newer than the
// snapshot, and is served. Serving the entry before knowing the snapshot could
// pair a stale own write with a newer version of another key from the same
// foreign transaction.
func (c *Client) Read(ctx context.Context, keys ...string) (map[string][]byte, error) {
	if !c.inTx {
		return nil, ErrNoTransaction
	}
	out := make(map[string][]byte, len(keys))
	var remote []string
	var withheld []wire.CachedKey
	for _, k := range keys {
		c.stats.KeysRead++
		var held wire.Item // the write cache's entry for k, if it may answer
		cached := false
		if c.cfg.CacheBypass == nil || !c.cfg.CacheBypass(k) {
			if v, ok := c.ws[k]; ok {
				out[k] = v
				c.stats.KeysFromWS++
				continue
			}
			if item, ok := c.rs[k]; ok {
				out[k] = item.Value
				c.stats.KeysFromRS++
				continue
			}
			held, cached = c.cache[k]
			if cached = cached && !c.cfg.DisableCache; cached && c.txID != 0 {
				c.readCached(k, out)
				continue
			}
		}
		// A placeholder marks the key as asked for, so a key named twice in
		// one call is requested once (the repeat counts as a read-set hit);
		// fetch removes the placeholders nothing answers.
		if _, dup := out[k]; dup {
			c.stats.KeysFromRS++
			continue
		}
		out[k] = nil
		if cached {
			withheld = append(withheld, wire.CachedKey{Key: k, UT: held.UT})
		} else {
			remote = append(remote, k)
		}
	}
	if len(remote) == 0 && len(withheld) == 0 {
		return out, nil
	}
	if err := c.fetch(ctx, remote, withheld, out); err != nil {
		return nil, err
	}
	return out, nil
}

// readCached answers key from the write cache. The cached version is the
// session's own write, newer than anything in the stable snapshot: it must
// win or read-your-writes breaks.
func (c *Client) readCached(key string, out map[string][]byte) {
	item := c.cache[key]
	out[key] = item.Value
	c.rs[key] = item
	c.stats.KeysFromWC++
}

// fetch reads keys at the coordinator into out and the read-set; the first
// request of a transaction also starts it, and only that one can have withheld
// keys (keys may then be empty). Once the response's snapshot has pruned the
// cache, a withheld key is either still cached and served from there, or was
// read by the coordinator and is among the response's items.
func (c *Client) fetch(ctx context.Context, keys []string, withheld []wire.CachedKey, out map[string][]byte) error {
	resp, err := c.call(ctx, wire.ReadReq{TxID: c.txID, ClientUST: c.ust, Keys: keys, Cached: withheld})
	if err != nil {
		return err
	}
	m, ok := resp.(wire.ReadResp)
	if !ok {
		return fmt.Errorf("client: unexpected read response %v", resp.Kind())
	}
	if c.txID == 0 {
		if err := c.adopt(m.TxID, m.Snapshot); err != nil {
			return err
		}
	}
	for _, item := range m.Items {
		out[item.Key] = item.Value
		c.rs[item.Key] = item
		c.stats.KeysFromSrvr++
	}
	for _, ck := range withheld {
		if _, ok := c.cache[ck.Key]; ok {
			c.readCached(ck.Key, out)
		}
	}
	if len(m.Items) < len(keys)+len(withheld) {
		drop := func(k string) {
			if _, ok := c.rs[k]; !ok {
				delete(out, k) // no visible version: drop the placeholder
			}
		}
		for _, k := range keys {
			drop(k)
		}
		for _, ck := range withheld {
			drop(ck.Key)
		}
	}
	return nil
}

// ReadOne reads a single key; ok reports whether a version was visible.
func (c *Client) ReadOne(ctx context.Context, key string) (value []byte, ok bool, err error) {
	vals, err := c.Read(ctx, key)
	if err != nil {
		return nil, false, err
	}
	v, ok := vals[key]
	return v, ok, nil
}

// Write buffers updates in the transaction's write-set (Alg. 1 lines 21–25).
func (c *Client) Write(key string, value []byte) error {
	if !c.inTx {
		return ErrNoTransaction
	}
	c.ws[key] = value
	return nil
}

// Commit finalizes the transaction (Alg. 1 lines 26–32). For update
// transactions it returns the commit timestamp; read-only transactions
// finish locally after releasing the coordinator's context. A failed commit
// leaves the transaction open for Abandon, except when the commit was the
// transaction's first operation (see below).
func (c *Client) Commit(ctx context.Context) (hlc.Timestamp, error) {
	if !c.inTx {
		return 0, ErrNoTransaction
	}
	if len(c.ws) == 0 {
		c.finish()
		c.stats.TxReadOnly++
		return 0, nil
	}

	writes := make([]wire.KV, 0, len(c.ws))
	for k, v := range c.ws {
		writes = append(writes, wire.KV{Key: k, Value: v})
	}
	resp, err := c.call(ctx, wire.CommitReq{TxID: c.txID, ClientUST: c.ust, HWT: c.hwt, Writes: writes})
	if err != nil {
		if c.txID == 0 {
			// The commit was also the start and its outcome is unknown. With
			// an id a retry is safe — the coordinator refuses a transaction it
			// already decided — but without one a retry would start a second
			// transaction and could commit the writes twice: the transaction
			// ends here.
			c.inTx = false
		}
		return 0, err
	}
	m, ok := resp.(wire.CommitResp)
	if !ok {
		return 0, fmt.Errorf("client: unexpected commit response %v", resp.Kind())
	}
	if c.txID == 0 { // a transaction that only wrote: the commit started it
		if err := c.adopt(m.TxID, m.Snapshot); err != nil {
			return 0, err
		}
	}

	// hwtc ← ct; tag WSc entries with hwtc and move them to WCc. The cache
	// is a PaRiS-only mechanism: it papers over the stable snapshot's
	// staleness until the UST passes the commit. BPR never needs it — the
	// next snapshot covers the commit and the read blocks until the write is
	// installed — so populating it in ModeBlocking only accumulates entries
	// between transactions and lets reads bypass the blocking path the
	// protocol is defined by.
	c.hwt = m.CommitTS
	if c.cfg.Mode == ModeNonBlocking && !c.cfg.DisableCache {
		for k, v := range c.ws {
			c.cache[k] = wire.Item{
				Key:   k,
				Value: v,
				UT:    m.CommitTS,
				TxID:  c.txID,
				SrcDC: c.cfg.Coordinator.DC,
			}
		}
		if len(c.cache) > c.stats.CachePeak {
			c.stats.CachePeak = len(c.cache)
		}
	}
	if c.cfg.Mode == ModeBlocking && m.CommitTS > c.ust {
		// BPR tracks the highest observed timestamp instead of caching: the
		// next snapshot covers this commit and the read will block until it
		// is installed.
		c.ust = m.CommitTS
	}
	c.inTx = false
	c.stats.TxCommitted++
	return m.CommitTS, nil
}

// Abandon abandons the running transaction without committing its writes
// and releases the coordinator's context.
func (c *Client) Abandon() {
	if c.inTx {
		c.finish()
	}
}

// finish ends a transaction that commits nothing. The coordinator holds a
// context only if an operation reached it; a transaction that never left the
// client sends nothing.
func (c *Client) finish() {
	if c.txID != 0 {
		_ = c.peer.Cast(c.cfg.Coordinator, wire.FinishTx{TxID: c.txID})
	}
	c.inTx = false
}

func (c *Client) call(ctx context.Context, req wire.Message) (wire.Message, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	return c.peer.Call(cctx, c.cfg.Coordinator, req)
}

// clientHandler rejects inbound requests: clients only originate traffic.
type clientHandler struct{}

func (clientHandler) HandleRequest(_ topology.NodeID, _ wire.Message, reply func(wire.Message)) {
	reply(wire.ErrorResp{Msg: "clients do not serve requests"})
}

func (clientHandler) HandleCast(topology.NodeID, wire.Message) {}
