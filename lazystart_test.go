package paris

import (
	"context"
	"maps"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
	"github.com/paris-kv/paris/internal/workload"
)

// A transaction starts at the coordinator with its first Read or Commit:
// Begin sends nothing and there is no start round trip. These tests pin the
// message budget that buys, and the two places where starting late could go
// wrong — the write cache being consulted before the snapshot is known, and
// the response that carries the transaction id getting lost.

// clientKinds are the message kinds that only ever travel between a client
// and its coordinator.
var clientKinds = []wire.Kind{
	wire.KindStartTxReq, wire.KindStartTxResp, wire.KindReadReq, wire.KindReadResp,
	wire.KindCommitReq, wire.KindCommitResp, wire.KindFinishTx,
}

func TestMessageBudgetPaRiS(t *testing.T) { testMessageBudget(t, ModeNonBlocking) }
func TestMessageBudgetBPR(t *testing.T)   { testMessageBudget(t, ModeBlocking) }

// testMessageBudget counts, by kind, what one session's transactions put on
// the network. The session's coordinator replicates the partition all keys
// live on, so the client↔coordinator messages are the transaction's only
// ones: no slice read, no remote prepare. Then it writes other partitions: a
// write to one remote partition is one prepare call, which commits it, and
// a write to several still costs one CohortCommit per remote cohort.
func testMessageBudget(t *testing.T, mode Mode) {
	cfg := testConfig()
	cfg.Mode = mode
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	p := c.Topology().PartitionsAt(0)[0]
	s, err := c.NewSessionAt(0, int(p))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := benchKeysOn(c.Topology(), p, 4)

	// spent runs fn and returns what it sent, by kind: the client kinds, plus
	// the slice and 2PC kinds a local single-partition transaction must not
	// need. Background replication and gossip are not the transaction's.
	watched := append([]wire.Kind{wire.KindReadSliceReq, wire.KindPrepareReq, wire.KindPrepareResp,
		wire.KindCohortCommit, wire.KindAbortTx}, clientKinds...)
	spent := func(fn func()) map[wire.Kind]uint64 {
		before := c.Net().MessagesByKind()
		fn()
		after := c.Net().MessagesByKind()
		out := make(map[wire.Kind]uint64)
		for _, k := range watched {
			if d := after[k] - before[k]; d != 0 {
				out[k] = d
			}
		}
		return out
	}
	expect := func(name string, got map[wire.Kind]uint64, want ...wire.Kind) {
		t.Helper()
		ok := len(got) == len(want)
		for _, k := range want {
			ok = ok && got[k] == 1
		}
		if !ok {
			t.Errorf("%s sent %v, want exactly one each of %v", name, got, want)
		}
	}

	expect("read+write transaction", spent(func() {
		tx, err := s.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(ctx, keys[0], keys[1]); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(keys[0], []byte("v")); err != nil {
			t.Fatal(err)
		}
		if ct, err := tx.Commit(ctx); err != nil || ct == 0 {
			t.Fatalf("commit = %v, %v", ct, err)
		}
	}), wire.KindReadReq, wire.KindReadResp, wire.KindCommitReq, wire.KindCommitResp)

	expect("Put", spent(func() {
		if _, err := s.Put(ctx, map[string][]byte{keys[2]: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}), wire.KindCommitReq, wire.KindCommitResp)

	expect("Get", spent(func() {
		if _, err := s.Get(ctx, keys[3]); err != nil {
			t.Fatal(err)
		}
	}), wire.KindReadReq, wire.KindReadResp, wire.KindFinishTx)

	expect("empty transaction", spent(func() {
		tx, err := s.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		tx, err = s.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tx.Abandon()
	}))

	// A first read of keys the write cache holds (PaRiS; BPR keeps no cache)
	// is still one round, whichever way the snapshot decides them: the keys
	// travel beside the request with their cached times, and the coordinator
	// reads the ones the snapshot has passed. Straight after the commit the
	// entry usually survives; once the write is universally stable it cannot.
	ct, err := s.Put(ctx, map[string][]byte{keys[1]: []byte("w")})
	if err != nil {
		t.Fatal(err)
	}
	for _, stable := range []bool{false, true} {
		if stable && !c.WaitForUST(ct, 5*time.Second) {
			t.Fatal("the write never became universally stable")
		}
		expect("Get of a cached key", spent(func() {
			vals, err := s.Get(ctx, keys[1], keys[3])
			if err != nil {
				t.Fatal(err)
			}
			if string(vals[keys[1]]) != "w" {
				t.Errorf("read %q, want the session's own write (stable=%v)", vals[keys[1]], stable)
			}
		}), wire.KindReadReq, wire.KindReadResp, wire.KindFinishTx)
	}
	if mode == ModeNonBlocking && s.Client().CacheSize() != 0 {
		t.Errorf("cache holds %d entries after a snapshot past every write", s.Client().CacheSize())
	}

	// Starting late changes nothing a session can observe: its own write is
	// there (from the cache in PaRiS; in BPR the read blocks until installed).
	vals, err := s.Get(ctx, keys[0], keys[2])
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[keys[0]]) != "v" || string(vals[keys[2]]) != "v" {
		t.Errorf("read back %q after writing both keys", vals)
	}
	if n := c.Net().MessagesByKind()[wire.KindStartTxReq]; n != 0 {
		t.Errorf("%d StartTxReq sent; a transaction starts with its first operation", n)
	}

	// Writes to partitions the coordinator does not replicate. The sole
	// cohort of a one-partition write decides the commit in its prepare; a
	// write to two remote partitions is a two-phase commit.
	var remote [2]string
	for i, q := 0, topology.PartitionID(0); i < len(remote); q++ {
		if q != p {
			remote[i] = benchKeysOn(c.Topology(), q, 1)[0]
			i++
		}
	}
	put := func(keys ...string) func() {
		return func() {
			ws := make(map[string][]byte, len(keys))
			for _, k := range keys {
				ws[k] = []byte("r")
			}
			if _, err := s.Put(ctx, ws); err != nil {
				t.Fatal(err)
			}
		}
	}
	expect("remote one-partition Put", spent(put(remote[0])),
		wire.KindCommitReq, wire.KindCommitResp, wire.KindPrepareReq, wire.KindPrepareResp)
	expect("local+remote Put", spent(put(keys[0], remote[0])),
		wire.KindCommitReq, wire.KindCommitResp, wire.KindPrepareReq, wire.KindPrepareResp, wire.KindCohortCommit)
	if got, want := spent(put(remote[0], remote[1])), map[wire.Kind]uint64{
		wire.KindCommitReq: 1, wire.KindCommitResp: 1,
		wire.KindPrepareReq: 2, wire.KindPrepareResp: 2, wire.KindCohortCommit: 2,
	}; !maps.Equal(got, want) {
		t.Errorf("two-remote-partition Put sent %v, want %v", got, want)
	}
}

// TestLazyStartNeverMixesCacheWithNewerSnapshot: session A writes k and keeps
// it in its write cache; the UST passes the write; session B overwrites k and
// k2 in one transaction, which becomes stable too. A's next transaction gets
// a snapshot that covers B's transaction with the very read that asks for
// {k, k2}: serving k from the cache before that snapshot is known would pair
// A's stale k with B's k2. The history goes through internal/check.
func TestLazyStartNeverMixesCacheWithNewerSnapshot(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	history := &check.History{}
	open := func(id int, dc DCID) *recordingSession {
		s, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return &recordingSession{s: s, id: id, history: history}
	}
	a, b := open(0, 0), open(1, 1)
	const k, k2 = "mix-k", "mix-k2"
	run := func(r *recordingSession, plan workload.TxPlan) {
		t.Helper()
		if err := r.runPlan(ctx, plan); err != nil {
			t.Fatal(err)
		}
		if hwt := r.s.Client().HWT(); len(plan.Writes) > 0 && !c.WaitForUST(hwt, 5*time.Second) {
			t.Fatal("UST stalled")
		}
	}
	run(a, workload.TxPlan{Writes: []wire.KV{{Key: k, Value: []byte("a")}}})
	if a.s.Client().CacheSize() != 1 {
		t.Fatal("A's write is not in its cache; the test would prove nothing")
	}
	run(b, workload.TxPlan{Writes: []wire.KV{{Key: k, Value: []byte("b")}, {Key: k2, Value: []byte("b")}}})

	run(a, workload.TxPlan{ReadKeys: []string{k, k2}})
	for _, key := range []string{k, k2} {
		if item, _ := a.s.Client().Observed(key); string(item.Value) != "b" {
			t.Errorf("A read %s=%q, want B's pair", key, item.Value)
		}
	}
	for _, v := range history.Check() {
		t.Error(v)
	}
}

// TestLostFirstResponse: the read that starts a transaction reaches the
// coordinator, the response is lost. The client learned no transaction id, so
// it is still unstarted and its retry starts a second transaction; the first
// one's context is evicted after TxContextTTL and, once gone, no longer holds
// the garbage-collection watermark back.
func TestLostFirstResponse(t *testing.T) {
	cfg := testConfig()
	cfg.CallTimeout = 50 * time.Millisecond // the client waits four of these
	cfg.TxContextTTL = 300 * time.Millisecond
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	p := c.Topology().PartitionsAt(0)[0]
	s, err := c.NewSessionAt(0, int(p))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	coord := c.Server(0, int(p))
	key := benchKeysOn(c.Topology(), p, 1)[0]
	ct, err := s.Put(ctx, map[string][]byte{key: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct, 5*time.Second) {
		t.Fatal("UST stalled")
	}

	c.Net().SetLinkFault(s.Client().Coordinator(), s.Client().ID(), transport.FaultBlackhole)
	tx, err := s.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(ctx, key); err == nil {
		t.Fatal("read succeeded although the coordinator's responses are dropped")
	}
	if id := s.Client().TxID(); id != 0 {
		t.Fatalf("client believes it is in transaction %v after a lost first response", id)
	}
	if n := coord.ActiveTxContexts(); n != 1 {
		t.Fatalf("%d contexts at the coordinator, want the orphan", n)
	}
	c.Net().SetLinkFault(s.Client().Coordinator(), s.Client().ID(), transport.FaultNone)

	vals, err := tx.Read(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[key]) != "v" || s.Client().TxID() == 0 {
		t.Fatalf("retry read %q in transaction %v", vals[key], s.Client().TxID())
	}
	if n := coord.ActiveTxContexts(); n != 2 {
		t.Fatalf("%d contexts at the coordinator, want the orphan and the retry's", n)
	}
	if _, err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// A later write becomes stable; the watermark may pass it only when no
	// context older than it is left, the orphan included.
	ct, err = s.Put(ctx, map[string][]byte{key: []byte("v2")})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.ActiveTxContexts() != 0 || coord.Sold() < ct {
		if time.Now().After(deadline) {
			t.Fatalf("contexts=%d sold=%v, want the orphan evicted and the watermark past %v",
				coord.ActiveTxContexts(), coord.Sold(), ct)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
