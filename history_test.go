package paris

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/wire"
	"github.com/paris-kv/paris/internal/workload"
)

// These tests run randomized concurrent workloads on a live cluster while
// recording every transaction, then feed the history to the offline TCC
// checker (internal/check). They are the strongest correctness evidence in
// the suite: any snapshot-consistency, atomicity, session or causality
// violation in any interleaving the run produced is caught.

// recordingSession wraps a Session, recording a check.Tx per transaction.
type recordingSession struct {
	s       *Session
	id      int
	seq     int
	history *check.History
}

// runPlan executes one workload plan transactionally and records it.
func (r *recordingSession) runPlan(ctx context.Context, plan workload.TxPlan) error {
	tx, err := r.s.Begin(ctx)
	if err != nil {
		return err
	}
	rec := check.Tx{
		Session: r.id,
		Seq:     r.seq,
	}
	r.seq++
	if len(plan.ReadKeys) > 0 {
		if _, err := tx.Read(ctx, plan.ReadKeys...); err != nil {
			tx.Abandon()
			return err
		}
		for _, k := range plan.ReadKeys {
			item, found := r.s.Client().Observed(k)
			rec.Reads = append(rec.Reads, check.ReadObs{
				Key: k, Writer: item.TxID, UT: item.UT, Found: found,
			})
		}
	}
	for _, kv := range plan.Writes {
		if err := tx.Write(kv.Key, kv.Value); err != nil {
			tx.Abandon()
			return err
		}
		rec.Writes = append(rec.Writes, kv.Key)
	}
	ct, err := tx.Commit(ctx)
	if err != nil {
		return err
	}
	// The id and snapshot are assigned by the transaction's first read or,
	// for one that only writes, by its commit: sample them now that both ran.
	rec.CommitTS, rec.Snapshot = ct, r.s.Client().Snapshot()
	if ct != 0 { // read-only: id not meaningful in the history
		rec.ID = r.s.Client().TxID()
	}
	r.history.Add(rec)
	return nil
}

// runCheckedWorkload drives concurrent recorded sessions and returns the
// merged history.
func runCheckedWorkload(t *testing.T, c *Cluster, mix workload.Mix, sessions, txPerSession int, disableCache bool) *check.History {
	t.Helper()
	topo := c.Topology()
	ks := workload.NewKeyspace(topo, 20) // small keyspace → heavy conflicts
	ctx := context.Background()

	histories := make([]*check.History, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dc := DCID(i % topo.NumDCs())
			var (
				sess *Session
				err  error
			)
			if disableCache {
				sess, err = c.newCacheFreeSession(dc)
			} else {
				sess, err = c.NewSession(dc)
			}
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			rs := &recordingSession{s: sess, id: i, history: &check.History{}}
			histories[i] = rs.history
			gen := workload.NewGenerator(mix, topo, ks, dc, int64(1000+i))
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < txPerSession; n++ {
				if err := rs.runPlan(ctx, gen.Next()); err != nil {
					errs <- err
					return
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	merged := &check.History{}
	for _, h := range histories {
		if h != nil {
			merged.Merge(h)
		}
	}
	return merged
}

func TestCheckedWorkloadParis(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	mix := workload.Mix{ReadsPerTx: 6, WritesPerTx: 2, PartitionsPerTx: 3,
		LocalRatio: 0.8, Theta: 0.8, ValueSize: 8}
	h := runCheckedWorkload(t, c, mix, 9, 40, false)
	if h.Len() != 9*40 {
		t.Fatalf("recorded %d transactions, want %d", h.Len(), 9*40)
	}
	if vs := h.Check(); len(vs) != 0 {
		for i, v := range vs {
			if i > 10 {
				break
			}
			t.Error(v)
		}
		t.Fatalf("TCC violations under PaRiS: %d", len(vs))
	}
}

func TestCheckedWorkloadBPR(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeBlocking
	c := newTestCluster(t, cfg)
	mix := workload.Mix{ReadsPerTx: 6, WritesPerTx: 2, PartitionsPerTx: 3,
		LocalRatio: 0.8, Theta: 0.8, ValueSize: 8}
	h := runCheckedWorkload(t, c, mix, 6, 25, false)
	if vs := h.Check(); len(vs) != 0 {
		for i, v := range vs {
			if i > 10 {
				break
			}
			t.Error(v)
		}
		t.Fatalf("TCC violations under BPR: %d", len(vs))
	}
}

func TestCheckedWorkloadWithClockSkew(t *testing.T) {
	// Hybrid logical clocks must preserve TCC under significant clock skew.
	cfg := testConfig()
	cfg.ClockSkew = 50 * time.Millisecond
	c := newTestCluster(t, cfg)
	mix := workload.Mix{ReadsPerTx: 6, WritesPerTx: 2, PartitionsPerTx: 3,
		LocalRatio: 0.8, Theta: 0.8, ValueSize: 8}
	h := runCheckedWorkload(t, c, mix, 6, 30, false)
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("TCC violations under clock skew: %v", vs[0])
	}
}

func TestCacheAblationBreaksReadYourWrites(t *testing.T) {
	// §III-B: "UST alone cannot enforce causality" — without the client
	// cache, a session's own recent writes fall outside the stable snapshot
	// and read-your-writes must break. This test demonstrates the violation
	// the cache exists to prevent (and validates the checker against a live
	// failure, not a synthetic one).
	cfg := testConfig()
	// Long rounds widen the window between commit and stability.
	cfg.ApplyInterval = 20 * time.Millisecond
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	sess, err := c.newCacheFreeSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var h check.History
	rs := &recordingSession{s: sess, id: 0, history: &h}
	// Write then immediately read the same key, repeatedly.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("abl-%d", i)
		plan := workload.TxPlan{Writes: []wire.KV{{Key: key, Value: []byte("v")}}}
		if err := rs.runPlan(ctx, plan); err != nil {
			t.Fatal(err)
		}
		if err := rs.runPlan(ctx, workload.TxPlan{ReadKeys: []string{key}}); err != nil {
			t.Fatal(err)
		}
	}
	vs := h.Check()
	found := false
	for _, v := range vs {
		if v.Kind == check.KindReadYourWrites {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("expected read-your-writes violations without the cache; got none " +
			"(stabilization may be outpacing the writes)")
	}
}

// newCacheFreeSession builds a session with the write cache disabled (test
// hook for the ablation).
func (c *Cluster) newCacheFreeSession(dc DCID) (*Session, error) {
	local := c.topo.PartitionsAt(dc)
	c.mu.Lock()
	seq := c.clientSeq[dc]
	c.clientSeq[dc] = seq + 1
	coord := local[int(seq)%len(local)]
	c.mu.Unlock()
	return c.newSessionOpts(dc, seq, coord, true)
}

var _ = topology.DCID(0)
