package paris

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// These integration tests verify the TCC guarantees of §II-B on a live
// cluster: causally consistent snapshots, atomic multi-key writes,
// read-your-writes, monotonic snapshots, and convergence — in both PaRiS
// and BPR modes.

func modes() []struct {
	name string
	mode Mode
} {
	return []struct {
		name string
		mode Mode
	}{
		{"paris", ModeNonBlocking},
		{"bpr", ModeBlocking},
	}
}

func TestReadYourWritesImmediate(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = m.mode
			c := newTestCluster(t, cfg)
			ctx := context.Background()
			s, err := c.NewSession(0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Chain of writes, each immediately read back without waiting
			// for stabilization.
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("ryw-%d", i%3) // overwrite a few keys
				want := []byte(fmt.Sprintf("v%d", i))
				if _, err := s.Put(ctx, map[string][]byte{key: want}); err != nil {
					t.Fatal(err)
				}
				vals, err := s.Get(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				if string(vals[key]) != string(want) {
					t.Fatalf("iteration %d: read %q, want %q", i, vals[key], want)
				}
			}
		})
	}
}

func TestAtomicMultiKeyVisibility(t *testing.T) {
	// Writer updates two keys (on different partitions) in one transaction,
	// repeatedly. Readers must never observe a mixed pair: TCC's atomic
	// update property (§II-B property 2).
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	// Pick two keys on different partitions.
	k1, k2 := "atomic-a", ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("atomic-b%d", i)
		if c.PartitionOf(k) != c.PartitionOf(k1) {
			k2 = k
			break
		}
	}

	writer, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := []byte(fmt.Sprintf("%08d", i))
			if _, err := writer.Put(ctx, map[string][]byte{k1: v, k2: v}); err != nil {
				writerErr = err
				return
			}
		}
	}()

	// Readers in every DC check the pair stays equal.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for dc := DCID(0); dc < 3; dc++ {
			r, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := r.Get(ctx, k1, k2)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			v1, ok1 := vals[k1]
			v2, ok2 := vals[k2]
			if ok1 != ok2 || (ok1 && string(v1) != string(v2)) {
				t.Fatalf("fractured read in DC %d: %q(%v) vs %q(%v)", dc, v1, ok1, v2, ok2)
			}
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

func TestCausalChainAcrossSessions(t *testing.T) {
	// Classic causality test: Alice writes X, Bob reads X and writes Y
	// (so X → Y). Any snapshot containing Y must contain X.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	kx, ky := "causal-x", ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("causal-y%d", i)
		if c.PartitionOf(k) != c.PartitionOf(kx) {
			ky = k
			break
		}
	}

	alice, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	for round := 0; round < 10; round++ {
		want := []byte(fmt.Sprintf("r%d", round))
		ctx1, err := alice.Put(ctx, map[string][]byte{kx: want})
		if err != nil {
			t.Fatal(err)
		}
		// Bob polls until he sees Alice's write (it becomes visible once
		// the UST passes it), then writes Y depending on it.
		var seen []byte
		for {
			vals, err := bob.Get(ctx, kx)
			if err != nil {
				t.Fatal(err)
			}
			if string(vals[kx]) == string(want) {
				seen = vals[kx]
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if _, err := bob.Put(ctx, map[string][]byte{ky: seen}); err != nil {
			t.Fatal(err)
		}

		// Every observer that sees Y=round must see X=round (X → Y).
		for dc := DCID(0); dc < 3; dc++ {
			obs, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := obs.Get(ctx, kx, ky)
			obs.Close()
			if err != nil {
				t.Fatal(err)
			}
			if string(vals[ky]) == string(want) && string(vals[kx]) != string(want) {
				t.Fatalf("round %d DC %d: snapshot has Y but not X (x=%q y=%q)",
					round, dc, vals[kx], vals[ky])
			}
		}
		_ = ctx1
	}
}

func TestMonotonicSnapshots(t *testing.T) {
	// A session's snapshots never move backwards, even when the session
	// starts transactions on the same coordinator while gossip progresses.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	s, err := c.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var prev Timestamp
	for i := 0; i < 50; i++ {
		tx, err := s.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The transaction's first read assigns the snapshot (Begin is local).
		if _, err := tx.Read(ctx, "monotonic-probe"); err != nil {
			t.Fatal(err)
		}
		snap := tx.Snapshot()
		if _, err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if snap < prev {
			t.Fatalf("snapshot regressed: %v after %v", snap, prev)
		}
		prev = snap
		if i%10 == 0 {
			time.Sleep(3 * time.Millisecond)
		}
	}
}

func TestRepeatableReads(t *testing.T) {
	// Within one transaction, re-reading a key returns the first observed
	// value even if another session overwrites it meanwhile.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	w, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ct, err := w.Put(ctx, map[string][]byte{"rr": []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct, 5*time.Second) {
		t.Fatal("UST stalled")
	}

	r, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx, err := r.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := tx.ReadOne(ctx, "rr")
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "v1" {
		t.Fatalf("first read %q, want v1", first)
	}

	// Overwrite from the other session and wait until universally stable.
	ct2, err := w.Put(ctx, map[string][]byte{"rr": []byte("v2")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct2, 5*time.Second) {
		t.Fatal("UST stalled")
	}

	again, _, err := tx.ReadOne(ctx, "rr")
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "v1" {
		t.Fatalf("repeatable read violated: %q", again)
	}
	if _, err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// A new transaction sees the overwrite.
	vals, err := r.Get(ctx, "rr")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["rr"]) != "v2" {
		t.Fatalf("new snapshot = %q, want v2", vals["rr"])
	}
}

func TestConvergenceAcrossReplicas(t *testing.T) {
	// Concurrent conflicting writes from different DCs converge to the same
	// last-writer-wins outcome on every replica.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	const key = "conflict"
	var (
		wg   sync.WaitGroup
		last Timestamp
		mu   sync.Mutex
	)
	for dc := DCID(0); dc < 3; dc++ {
		wg.Add(1)
		go func(dc DCID) {
			defer wg.Done()
			s, err := c.NewSession(dc)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < 10; i++ {
				ct, err := s.Put(ctx, map[string][]byte{key: []byte(fmt.Sprintf("dc%d-%d", dc, i))})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if ct > last {
					last = ct
				}
				mu.Unlock()
			}
		}(dc)
	}
	wg.Wait()
	if !c.WaitForUST(last, 10*time.Second) {
		t.Fatal("UST stalled")
	}

	// All replicas of the key's partition hold the same winning version.
	p := c.PartitionOf(key)
	var winner string
	for _, dc := range c.Topology().ReplicaDCs(c.Topology().PartitionOf(key)) {
		srv := c.Server(dc, p)
		item, ok := srv.Store().ReadLatest(key)
		if !ok {
			t.Fatalf("replica in DC %d lost the key", dc)
		}
		if winner == "" {
			winner = string(item.Value)
		} else if winner != string(item.Value) {
			t.Fatalf("replicas diverged: %q vs %q", winner, item.Value)
		}
	}

	// And every DC's reads agree.
	for dc := DCID(0); dc < 3; dc++ {
		s, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := s.Get(ctx, key)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(vals[key]) != winner {
			t.Fatalf("DC %d reads %q, winner %q", dc, vals[key], winner)
		}
	}
}

func TestBPRBlockingReadsSeeFreshData(t *testing.T) {
	// In BPR, a read issued right after a remote write with a snapshot from
	// the coordinator clock blocks until the write is installed — so the
	// same-session read-after-write works without the client cache.
	cfg := testConfig()
	cfg.Mode = ModeBlocking
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		want := []byte(fmt.Sprintf("fresh-%d", i))
		if _, err := s.Put(ctx, map[string][]byte{"bpr-key": want}); err != nil {
			t.Fatal(err)
		}
		vals, err := s.Get(ctx, "bpr-key")
		if err != nil {
			t.Fatal(err)
		}
		if string(vals["bpr-key"]) != string(want) {
			t.Fatalf("BPR read %q, want %q", vals["bpr-key"], want)
		}
	}
	// The blocking-time metric must have registered waits somewhere.
	blocked := uint64(0)
	for _, srv := range c.Servers() {
		blocked += srv.Metrics().ReadsBlocked
	}
	if blocked == 0 {
		t.Log("note: no reads blocked (fast stabilization); acceptable but unusual")
	}
}

func TestGarbageCollectionTrimsChains(t *testing.T) {
	cfg := testConfig()
	cfg.GCInterval = 5 * time.Millisecond
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const key = "gc-key"
	var last Timestamp
	for i := 0; i < 50; i++ {
		ct, err := s.Put(ctx, map[string][]byte{key: []byte(fmt.Sprintf("%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		last = ct
	}
	if !c.WaitForUST(last, 5*time.Second) {
		t.Fatal("UST stalled")
	}
	// Give the GC a few cycles after stability.
	deadline := time.Now().Add(3 * time.Second)
	p := c.PartitionOf(key)
	for {
		maxVersions := 0
		for _, dc := range c.Topology().ReplicaDCs(c.Topology().PartitionOf(key)) {
			if n := c.Server(dc, p).Store().VersionCount(key); n > maxVersions {
				maxVersions = n
			}
		}
		if maxVersions <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC left %d versions of %q", maxVersions, key)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The latest value survives.
	vals, err := s.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[key]) != "49" {
		t.Fatalf("after GC read %q, want 49", vals[key])
	}
}

func TestDCPartitionFreezesUSTAndHeals(t *testing.T) {
	// §III-C availability: when a DC is partitioned away, the UST freezes
	// everywhere (it is a global minimum); local operations continue; after
	// healing, the UST resumes.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	// Let the system reach a steady state.
	time.Sleep(100 * time.Millisecond)
	c.Net().IsolateDC(2, true, 3)
	time.Sleep(50 * time.Millisecond)
	frozen := c.Server(0, 0).UST()
	time.Sleep(150 * time.Millisecond)
	after := c.Server(0, 0).UST()
	// The UST may advance a hair while in-flight gossip drains, but must
	// stall far below real-time progress (150ms).
	if d := after.Physical() - frozen.Physical(); d > 100 {
		t.Fatalf("UST advanced %dms during partition", d)
	}

	// Local writes in a connected DC still commit (availability).
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	localKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("avail-%d", i)
		p := c.Topology().PartitionOf(k)
		if c.Topology().IsReplicatedAt(p, 0) && !c.Topology().IsReplicatedAt(p, 2) {
			localKey = k
			break
		}
	}
	ct, err := s.Put(ctx, map[string][]byte{localKey: []byte("during-partition")})
	if err != nil {
		t.Fatalf("local write failed during partition: %v", err)
	}

	// Heal; the UST resumes and passes the commit.
	c.Net().IsolateDC(2, false, 3)
	if !c.WaitForUST(ct, 10*time.Second) {
		t.Fatal("UST did not resume after heal")
	}
}

func TestServerFailureFreezesUST(t *testing.T) {
	// §III-C: "the failure of a server blocks the progress of UST, but only
	// as long as a backup has not taken over". Without a backup (out of
	// scope), stopping one partition replica must freeze the UST everywhere
	// — the stabilization tree can no longer aggregate its subtree — while
	// the cluster keeps serving reads from the last stable snapshot.
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	// Reach a steady state with some data.
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ct, err := s.Put(ctx, map[string][]byte{"pre-crash": []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct, 5*time.Second) {
		t.Fatal("UST stalled before the failure")
	}

	// Crash one replica (a leaf or root of DC 1's tree — either blocks it).
	victim := c.Server(1, int(c.Topology().PartitionsAt(1)[0]))
	victim.Stop()

	time.Sleep(50 * time.Millisecond)
	frozen := c.MinUST()
	time.Sleep(150 * time.Millisecond)
	after := c.MinUST()
	if d := after.Physical() - frozen.Physical(); d > 100 {
		t.Fatalf("UST advanced %dms past a failed server", d)
	}

	// Reads from the stable snapshot still succeed everywhere (non-blocking
	// reads never depend on the failed server's liveness unless it is the
	// only replica contacted).
	reader, err := c.NewSessionAt(0, int(c.Topology().PartitionsAt(0)[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	vals, err := reader.Get(ctx, "pre-crash")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["pre-crash"]) != "v" {
		t.Fatalf("stable snapshot lost after server failure: %q", vals["pre-crash"])
	}
}
