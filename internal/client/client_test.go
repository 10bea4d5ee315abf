package client

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// fakeCoordinator scripts coordinator behaviour for client unit tests.
type fakeCoordinator struct {
	mu       sync.Mutex
	snapshot hlc.Timestamp
	commitTS hlc.Timestamp
	// store maps keys to items returned by reads.
	store map[string]wire.Item
	// log records requests for assertions; starts holds the ClientUST of every
	// request that started a transaction.
	starts   []hlc.Timestamp
	reads    []wire.ReadReq
	commits  []wire.CommitReq
	finishes []wire.FinishTx
	txSeq    uint64
	// live maps the transactions started and not yet ended to their snapshot.
	live map[wire.TxID]hlc.Timestamp
	// drop makes the coordinator serve that many requests without replying:
	// the request lands, the response is lost.
	drop int
}

// tx resolves the transaction of a read or commit the way the server does: a
// zero id starts one at max(snapshot, clientUST).
func (f *fakeCoordinator) tx(id wire.TxID, clientUST hlc.Timestamp) (wire.TxID, hlc.Timestamp, bool) {
	if id != 0 {
		snap, ok := f.live[id]
		return id, snap, ok
	}
	f.starts = append(f.starts, clientUST)
	f.txSeq++
	id = wire.NewTxID(0, 0, f.txSeq)
	if f.live == nil {
		f.live = make(map[wire.TxID]hlc.Timestamp)
	}
	f.live[id] = hlc.Max(f.snapshot, clientUST)
	return id, f.live[id], true
}

func (f *fakeCoordinator) HandleRequest(_ topology.NodeID, req wire.Message, reply func(wire.Message)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch m := req.(type) {
	case wire.ReadReq:
		f.reads = append(f.reads, m)
		id, snap, ok := f.tx(m.TxID, m.ClientUST)
		if !ok {
			reply(wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "unknown transaction"})
			return
		}
		if f.drop > 0 {
			f.drop--
			return
		}
		var items []wire.Item
		for _, k := range m.Keys {
			if item, ok := f.store[k]; ok {
				items = append(items, item)
			}
		}
		// Withheld keys are read only where the snapshot passed the cached
		// version, as the server does.
		for _, ck := range m.Cached {
			if item, ok := f.store[ck.Key]; ok && ck.UT <= snap {
				items = append(items, item)
			}
		}
		reply(wire.ReadResp{TxID: id, Snapshot: snap, Items: items})
	case wire.CommitReq:
		f.commits = append(f.commits, m)
		id, snap, ok := f.tx(m.TxID, m.ClientUST)
		if !ok {
			reply(wire.ErrorResp{Code: wire.CodeUnknownTx, Msg: "unknown transaction"})
			return
		}
		delete(f.live, id)
		if f.drop > 0 {
			f.drop--
			return
		}
		reply(wire.CommitResp{TxID: id, Snapshot: snap, CommitTS: f.commitTS})
	default: // StartTxReq included: clients start with their first operation
		reply(wire.ErrorResp{Msg: "unexpected"})
	}
}

func (f *fakeCoordinator) HandleCast(_ topology.NodeID, msg wire.Message) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := msg.(wire.FinishTx); ok {
		f.finishes = append(f.finishes, m)
		delete(f.live, m.TxID)
	}
}

var (
	coordID  = topology.ServerID(0, 0)
	clientID = topology.ClientID(0, 1)
)

func newClientRig(t *testing.T, cfg Config, coord *fakeCoordinator) *Client {
	t.Helper()
	net := transport.NewMemNet(nil)
	t.Cleanup(func() { _ = net.Close() })

	coordPeer := transport.NewPeer(coordID, coord)
	ep, err := net.Register(coordID, coordPeer)
	if err != nil {
		t.Fatal(err)
	}
	coordPeer.Attach(ep)

	if cfg.ID.Role == 0 {
		cfg.ID = clientID
	}
	if cfg.Coordinator.Role == 0 {
		cfg.Coordinator = coordID
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cep, err := net.Register(c.ID(), c.Peer())
	if err != nil {
		t.Fatal(err)
	}
	c.Peer().Attach(cep)
	t.Cleanup(c.Close)
	return c
}

func TestNewValidatesIdentities(t *testing.T) {
	if _, err := New(Config{ID: coordID, Coordinator: coordID}); err == nil {
		t.Fatal("server identity accepted as client")
	}
	if _, err := New(Config{ID: clientID, Coordinator: clientID}); err == nil {
		t.Fatal("client identity accepted as coordinator")
	}
}

func TestOperationsRequireTransaction(t *testing.T) {
	c := newClientRig(t, Config{}, &fakeCoordinator{})
	ctx := context.Background()
	if _, err := c.Read(ctx, "k"); err != ErrNoTransaction {
		t.Fatalf("Read err = %v", err)
	}
	if err := c.Write("k", nil); err != ErrNoTransaction {
		t.Fatalf("Write err = %v", err)
	}
	if _, err := c.Commit(ctx); err != ErrNoTransaction {
		t.Fatalf("Commit err = %v", err)
	}
	c.Abandon() // no-op outside a transaction
}

func TestDoubleStartRejected(t *testing.T) {
	c := newClientRig(t, Config{}, &fakeCoordinator{})
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != ErrInTransaction {
		t.Fatalf("second Start err = %v", err)
	}
}

func TestFirstReadSendsUSTAndAdoptsSnapshot(t *testing.T) {
	coord := &fakeCoordinator{snapshot: hlc.New(100, 0)}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Start is local: nothing is assigned and nothing was sent.
	if c.Snapshot() != 0 || c.TxID() != 0 {
		t.Fatalf("before the first operation: tx %v snapshot %v, want zero", c.TxID(), c.Snapshot())
	}
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot() != hlc.New(100, 0) || c.TxID() == 0 {
		t.Fatalf("after the first read: tx %v snapshot %v", c.TxID(), c.Snapshot())
	}
	if c.UST() != hlc.New(100, 0) {
		t.Fatalf("ustc %v not adopted", c.UST())
	}
	first := c.TxID()
	if _, err := c.Read(ctx, "k2"); err != nil {
		t.Fatal(err)
	}
	if c.TxID() != first {
		t.Fatalf("second read changed the transaction: %v → %v", first, c.TxID())
	}
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// The next transaction's first read piggybacks the observed UST.
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.starts) != 2 || coord.starts[1] != hlc.New(100, 0) {
		t.Fatalf("transactions started with ustc %v, want [0 100.0]", coord.starts)
	}
	if len(coord.reads) != 3 || coord.reads[0].TxID != 0 || coord.reads[1].TxID != first || coord.reads[2].TxID != 0 {
		t.Fatalf("reads %+v: only a transaction's first read may carry a zero id", coord.reads)
	}
}

// TestLostFirstCommitResponseEndsTransaction: a commit that was also the
// start has no id to retry under, so resending it could commit the writes
// twice. The transaction ends with the error instead.
func TestLostFirstCommitResponseEndsTransaction(t *testing.T) {
	coord := &fakeCoordinator{drop: 1, commitTS: hlc.New(200, 0)}
	c := newClientRig(t, Config{CallTimeout: 50 * time.Millisecond}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("v"))
	if _, err := c.Commit(ctx); err == nil {
		t.Fatal("commit succeeded although its response was dropped")
	}
	if _, err := c.Commit(ctx); err != ErrNoTransaction {
		t.Fatalf("second commit err = %v, want ErrNoTransaction", err)
	}
	c.Abandon() // what callers do after a failed commit: a no-op here
	if err := c.Start(ctx); err != nil {
		t.Fatalf("next transaction: %v", err)
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.commits) != 1 {
		t.Fatalf("%d commits reached the coordinator, want 1", len(coord.commits))
	}
}

func TestEmptyTransactionSendsNothing(t *testing.T) {
	coord := &fakeCoordinator{}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	for _, end := range []func(){
		func() {
			if ct, err := c.Commit(ctx); err != nil || ct != 0 {
				t.Fatalf("empty commit = %v, %v", ct, err)
			}
		},
		c.Abandon,
	} {
		if err := c.Start(ctx); err != nil {
			t.Fatal(err)
		}
		end()
	}
	// A write-set hit needs no snapshot either.
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("v"))
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	c.Abandon()

	// Casts are delivered asynchronously but in order: once this transaction's
	// FinishTx has arrived, anything the empty ones sent would have too.
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	waitCond(t, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.finishes) > 0
	})
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.reads) != 1 || len(coord.commits) != 0 || len(coord.finishes) != 1 {
		t.Fatalf("coordinator saw %d reads, %d commits, %d finishes; the empty transactions must add none",
			len(coord.reads), len(coord.commits), len(coord.finishes))
	}
}

func TestWriteOnlyTransactionIsOneRound(t *testing.T) {
	coord := &fakeCoordinator{snapshot: hlc.New(100, 0), commitTS: hlc.New(200, 0)}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("v"))
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	if len(coord.commits) != 1 || coord.commits[0].TxID != 0 || len(coord.reads) != 0 {
		t.Fatalf("commits %+v reads %+v: want one commit that starts the transaction", coord.commits, coord.reads)
	}
	coord.mu.Unlock()
	// The response's id and snapshot were adopted: the cached write is tagged
	// with the transaction that wrote it and ustc advanced.
	if c.TxID() == 0 || c.UST() != hlc.New(100, 0) {
		t.Fatalf("tx %v ust %v after a fused commit", c.TxID(), c.UST())
	}
	want := c.TxID()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if item, ok := c.Observed("k"); !ok || item.TxID != want || item.UT != hlc.New(200, 0) {
		t.Fatalf("cached write observed as %+v, want tx %v at 200.0", item, want)
	}
}

func TestReadRequestsEachKeyOnce(t *testing.T) {
	coord := &fakeCoordinator{store: map[string]wire.Item{
		"a": {Key: "a", Value: []byte("1"), UT: 1, TxID: 9},
		"b": {Key: "b", Value: []byte("2"), UT: 1, TxID: 9},
	}}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Read(ctx, "a", "gone", "a", "b", "gone", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || string(vals["a"]) != "1" || string(vals["b"]) != "2" {
		t.Fatalf("read %q, want a=1 b=2 and no entry for the missing key", vals)
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.reads) != 1 || len(coord.reads[0].Keys) != 3 {
		t.Fatalf("reads %+v, want one request for [a gone b]", coord.reads)
	}
}

// TestCacheConsultedOnlyUnderKnownSnapshot: on a transaction's first read the
// snapshot is not known yet, so a cached key is withheld from the request's
// key list — it travels beside it with its cached update time — and decided
// once the response brings the snapshot.
func TestCacheConsultedOnlyUnderKnownSnapshot(t *testing.T) {
	other := wire.NewTxID(1, 0, 7)
	coord := &fakeCoordinator{
		snapshot: hlc.New(100, 0),
		commitTS: hlc.New(200, 0),
		store: map[string]wire.Item{
			"k":  {Key: "k", Value: []byte("theirs"), UT: hlc.New(250, 0), TxID: other},
			"k2": {Key: "k2", Value: []byte("theirs"), UT: hlc.New(250, 0), TxID: other},
		},
	}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("mine"))
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Snapshot 100 < 200: the cached write survives and is served; only k2
	// travels.
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Read(ctx, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["k"]) != "mine" {
		t.Fatalf("read %q, want the session's own write", vals["k"])
	}
	coord.mu.Lock()
	wantCached := []wire.CachedKey{{Key: "k", UT: hlc.New(200, 0)}}
	if len(coord.reads) != 1 || len(coord.reads[0].Keys) != 1 || coord.reads[0].Keys[0] != "k2" ||
		!reflect.DeepEqual(coord.reads[0].Cached, wantCached) {
		t.Fatalf("reads %+v, want one request for [k2] with k withheld at 200.0", coord.reads)
	}
	coord.reads = nil
	// The stable snapshot now covers both the session's write and the other
	// transaction's overwrite of k and k2.
	coord.snapshot = hlc.New(300, 0)
	coord.mu.Unlock()
	c.Abandon()

	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err = c.Read(ctx, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["k"]) != "theirs" || string(vals["k2"]) != "theirs" {
		t.Fatalf("read k=%q k2=%q: a pruned own write was mixed with a newer snapshot", vals["k"], vals["k2"])
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.reads) != 1 || coord.reads[0].TxID != 0 || len(coord.reads[0].Keys) != 1 ||
		!reflect.DeepEqual(coord.reads[0].Cached, wantCached) {
		t.Fatalf("reads %+v, want one request: [k2] with k withheld, answered in the same round", coord.reads)
	}
	if c.Stats().KeysFromWC != 1 || c.CacheSize() != 0 {
		t.Fatalf("stats %+v cache %d", c.Stats(), c.CacheSize())
	}
}

// TestLostFirstResponseLeavesClientUnstarted: the request that starts the
// transaction lands but its response is lost. The client learned no id, so it
// is still unstarted and the retry starts a fresh transaction (the first
// one's context is the coordinator's to expire).
func TestLostFirstResponseLeavesClientUnstarted(t *testing.T) {
	coord := &fakeCoordinator{drop: 1, store: map[string]wire.Item{
		"k": {Key: "k", Value: []byte("v"), UT: 1, TxID: 9},
	}}
	c := newClientRig(t, Config{CallTimeout: 50 * time.Millisecond}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k"); err == nil {
		t.Fatal("read succeeded although its response was dropped")
	}
	if c.TxID() != 0 || c.Snapshot() != 0 {
		t.Fatalf("tx %v snapshot %v after a lost first response, want zero", c.TxID(), c.Snapshot())
	}
	vals, err := c.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["k"]) != "v" {
		t.Fatalf("retry read %q", vals["k"])
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.starts) != 2 || c.TxID() != wire.NewTxID(0, 0, 2) {
		t.Fatalf("%d transactions started, client in %v: want the retry in a fresh second one", len(coord.starts), c.TxID())
	}
}

func TestReadChecksWSBeforeServer(t *testing.T) {
	coord := &fakeCoordinator{store: map[string]wire.Item{
		"k": {Key: "k", Value: []byte("server"), UT: 1, TxID: 9},
	}}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("k", []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["k"]) != "buffered" {
		t.Fatalf("read %q, want buffered write", vals["k"])
	}
	coord.mu.Lock()
	reads := len(coord.reads)
	coord.mu.Unlock()
	if reads != 0 {
		t.Fatal("WS hit still contacted the server")
	}
	if c.Stats().KeysFromWS != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestReadSetGivesRepeatableReads(t *testing.T) {
	coord := &fakeCoordinator{store: map[string]wire.Item{
		"k": {Key: "k", Value: []byte("v1"), UT: 5, TxID: 1},
	}}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	// Server value changes mid-transaction.
	coord.mu.Lock()
	coord.store["k"] = wire.Item{Key: "k", Value: []byte("v2"), UT: 9, TxID: 2}
	coord.mu.Unlock()

	vals, err := c.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["k"]) != "v1" {
		t.Fatalf("repeatable read violated: %q", vals["k"])
	}
	if c.Stats().KeysFromRS != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
	item, ok := c.Observed("k")
	if !ok || item.TxID != 1 {
		t.Fatalf("Observed = %+v, %v", item, ok)
	}
}

func TestCommitMovesWritesToCacheAndPrunes(t *testing.T) {
	coord := &fakeCoordinator{commitTS: hlc.New(200, 0)}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()

	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("a", []byte("1"))
	_ = c.Write("b", []byte("2"))
	ct, err := c.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ct != hlc.New(200, 0) || c.HWT() != ct {
		t.Fatalf("ct %v hwt %v", ct, c.HWT())
	}
	if c.CacheSize() != 2 {
		t.Fatalf("cache size %d, want 2", c.CacheSize())
	}

	// Cache hit on the next transaction (snapshot still below commit ts).
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Read(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["a"]) != "1" {
		t.Fatalf("cache read %q", vals["a"])
	}
	if c.Stats().KeysFromWC != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Once the coordinator's snapshot covers the commit, the cache prunes.
	coord.mu.Lock()
	coord.snapshot = hlc.New(300, 0)
	coord.mu.Unlock()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "other"); err != nil { // brings the snapshot
		t.Fatal(err)
	}
	if c.CacheSize() != 0 {
		t.Fatalf("cache not pruned: %d entries", c.CacheSize())
	}
	if c.Stats().CachePruned != 2 {
		t.Fatalf("stats: %+v", c.Stats())
	}
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyCommitSendsFinish(t *testing.T) {
	coord := &fakeCoordinator{}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	ct, err := c.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ct != 0 {
		t.Fatalf("read-only commit ts %v", ct)
	}
	waitCond(t, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.finishes) == 1
	})
	if c.Stats().TxReadOnly != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestAbandonReleasesContext(t *testing.T) {
	coord := &fakeCoordinator{}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("v"))
	if _, err := c.Read(ctx, "other"); err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	waitCond(t, func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.finishes) == 1
	})
	// Nothing was committed, nothing cached.
	if c.CacheSize() != 0 {
		t.Fatal("abandoned writes leaked into the cache")
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCommitSendsHWT(t *testing.T) {
	coord := &fakeCoordinator{commitTS: hlc.New(500, 0)}
	c := newClientRig(t, Config{}, coord)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := c.Start(ctx); err != nil {
			t.Fatal(err)
		}
		_ = c.Write("k", []byte("v"))
		if _, err := c.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if coord.commits[0].HWT != 0 {
		t.Fatalf("first commit hwt %v, want 0", coord.commits[0].HWT)
	}
	if coord.commits[1].HWT != hlc.New(500, 0) {
		t.Fatalf("second commit hwt %v, want 500.0", coord.commits[1].HWT)
	}
}

func TestBlockingModeFoldsCommitIntoUST(t *testing.T) {
	coord := &fakeCoordinator{commitTS: hlc.New(700, 0)}
	c := newClientRig(t, Config{Mode: ModeBlocking}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("v"))
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if c.UST() != hlc.New(700, 0) {
		t.Fatalf("BPR client ust %v, want commit ts", c.UST())
	}
}

func TestDisableCacheSkipsCache(t *testing.T) {
	coord := &fakeCoordinator{commitTS: hlc.New(200, 0)}
	c := newClientRig(t, Config{DisableCache: true}, coord)
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("k", []byte("v"))
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if c.CacheSize() != 0 {
		t.Fatal("cache populated despite DisableCache")
	}
}

// waitCond polls for an asynchronously delivered effect (the memnet
// delivers casts on a separate goroutine even at zero latency).
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheBypassSkipsLocalSources(t *testing.T) {
	// Keys under a resolver prefix must always be fetched from the server:
	// locally buffered single operations are not the merged value.
	coord := &fakeCoordinator{
		commitTS: hlc.New(50, 0),
		store: map[string]wire.Item{
			"cnt:x": {Key: "cnt:x", Value: []byte("merged"), UT: 1, TxID: 9},
		},
	}
	c := newClientRig(t, Config{
		CacheBypass: func(key string) bool { return len(key) > 4 && key[:4] == "cnt:" },
	}, coord)
	ctx := context.Background()

	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c.Write("cnt:x", []byte("delta"))
	vals, err := c.Read(ctx, "cnt:x")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["cnt:x"]) != "merged" {
		t.Fatalf("bypass read returned %q, want server value", vals["cnt:x"])
	}
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// After commit the write sits in the cache, but bypass keys still read
	// from the server.
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err = c.Read(ctx, "cnt:x")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["cnt:x"]) != "merged" {
		t.Fatalf("post-commit bypass read returned %q", vals["cnt:x"])
	}
	// Non-bypass keys keep the normal write-set behaviour.
	_ = c.Write("plain", []byte("buffered"))
	vals, err = c.Read(ctx, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["plain"]) != "buffered" {
		t.Fatalf("plain key read %q", vals["plain"])
	}
}
