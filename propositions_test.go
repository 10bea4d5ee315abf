package paris

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// These tests assert the paper's correctness propositions (§IV-C) directly
// at the protocol level, complementing the history checker's black-box
// validation.

// TestLemma1SnapshotBelowCommit: "The snapshot time of a transaction T is
// always lower than the commit time of T."
func TestLemma1SnapshotBelowCommit(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 30; i++ {
		tx, err := s.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The transaction's first read assigns the snapshot (Begin is local).
		if _, err := tx.Read(ctx, fmt.Sprintf("lemma1-%d", i)); err != nil {
			t.Fatal(err)
		}
		snap := tx.Snapshot()
		if err := tx.Write(fmt.Sprintf("lemma1-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		ct, err := tx.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ct <= snap {
			t.Fatalf("commit %v not above snapshot %v", ct, snap)
		}
	}
}

// TestProp1SessionOrderTimestamps: case 1 of Proposition 1 — successive
// update transactions of one session have strictly increasing commit
// timestamps (hwtc threading through 2PC).
func TestProp1SessionOrderTimestamps(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var prev Timestamp
	for i := 0; i < 30; i++ {
		ct, err := s.Put(ctx, map[string][]byte{fmt.Sprintf("prop1-%d", i%5): []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		if ct <= prev {
			t.Fatalf("session commit order violated: %v after %v", ct, prev)
		}
		prev = ct
	}
}

// TestProp1ReadFromTimestamps: case 2 of Proposition 1 — if a session reads
// version X and then writes Y, then Y's commit timestamp exceeds X's update
// timestamp (u1 → u2 ⇒ u1.ut < u2.ut across sessions).
func TestProp1ReadFromTimestamps(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()

	alice, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := c.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	for round := 0; round < 10; round++ {
		ctX, err := alice.Put(ctx, map[string][]byte{"prop1-x": []byte(fmt.Sprintf("r%d", round))})
		if err != nil {
			t.Fatal(err)
		}
		// Bob waits until he observes exactly this version, then writes.
		deadline := time.Now().Add(5 * time.Second)
		for {
			tx, err := bob.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			raw, _, err := tx.ReadOne(ctx, "prop1-x")
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) == fmt.Sprintf("r%d", round) {
				if err := tx.Write("prop1-y", raw); err != nil {
					t.Fatal(err)
				}
				ctY, err := tx.Commit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if ctY <= ctX {
					t.Fatalf("read-from order violated: Y commits at %v, X at %v", ctY, ctX)
				}
				break
			}
			if _, err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("Alice's write never became visible")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestProp2VersionVectorCoverage: "VV[i] = t implies the server received
// all updates from the i-th replica with commit time ≤ t" — after quiescing,
// every server's installed lower bound covers every commit it stores.
func TestProp2VersionVectorCoverage(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var last Timestamp
	for i := 0; i < 20; i++ {
		ct, err := s.Put(ctx, map[string][]byte{fmt.Sprintf("prop2-%d", i): []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		last = ct
	}
	if !c.WaitForUST(last, 5*time.Second) {
		t.Fatal("UST stalled")
	}

	// The UST is a lower bound on every installed lower bound (safety of
	// the stabilization aggregation).
	for _, srv := range c.Servers() {
		if ilb := srv.InstalledLowerBound(); srv.UST() > ilb {
			t.Fatalf("server %v: UST %v above installed bound %v", srv.ID(), srv.UST(), ilb)
		}
	}
}

// TestProp4AtomicCommitTimestamps: all updates of one transaction carry the
// same commit timestamp on every replica that stores them (the mechanism
// behind write atomicity).
func TestProp4AtomicCommitTimestamps(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	s, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Keys on distinct partitions, written atomically.
	k1 := "prop4-a"
	k2 := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("prop4-b%d", i)
		if c.PartitionOf(k) != c.PartitionOf(k1) {
			k2 = k
			break
		}
	}
	ct, err := s.Put(ctx, map[string][]byte{k1: []byte("1"), k2: []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitForUST(ct, 5*time.Second) {
		t.Fatal("UST stalled")
	}

	topo := c.Topology()
	for _, key := range []string{k1, k2} {
		p := topo.PartitionOf(key)
		for _, dc := range topo.ReplicaDCs(p) {
			item, ok := c.Server(dc, int(p)).Store().ReadLatest(key)
			if !ok {
				t.Fatalf("replica %v missing %q", dc, key)
			}
			if item.UT != ct {
				t.Fatalf("key %q on DC %d has ut %v, commit was %v", key, dc, item.UT, ct)
			}
		}
	}
}

// TestUSTSafetyUnderLoad samples the global invariant ust ≤ min(VV) across
// all servers while a workload runs: the UST must never claim stability
// beyond what is actually installed.
func TestUSTSafetyUnderLoad(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		s, err := c.NewSession(0)
		if err != nil {
			done <- err
			return
		}
		defer s.Close()
		i := 0
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := s.Put(ctx, map[string][]byte{fmt.Sprintf("load-%d", i%7): []byte("v")}); err != nil {
				done <- err
				return
			}
			i++
		}
	}()

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		for _, srv := range c.Servers() {
			ust := srv.UST()
			ilb := srv.InstalledLowerBound()
			if ust > ilb {
				close(stop)
				<-done
				t.Fatalf("UST safety violated on %v: ust=%v installed=%v", srv.ID(), ust, ilb)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
