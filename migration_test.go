package paris

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// Cross-DC session migration: a session that moves between data centers
// carries its causal state (ust, hwt, client cache) in a client.Handoff, and
// the destination folds that state into its first snapshot. These tests pin
// the guarantee that matters — read-your-writes and snapshot monotonicity
// survive the move — in both visibility modes, with and without a concurrent
// inter-DC partition.

func migrationConfig(mode Mode) Config {
	cfg := testConfig()
	cfg.Mode = mode
	// Keep cohort failover snappy: the partition variants drive 2PC prepares
	// into a blocked DC and rely on timely failover to the surviving replica.
	cfg.CallTimeout = 400 * time.Millisecond
	return cfg
}

// testMigrate moves sess to dc and fails the test if the handoff did.
func testMigrate(t *testing.T, c *Cluster, sess *Session, dc DCID) *Session {
	t.Helper()
	ns, err := c.MigrateSession(sess, dc)
	if err != nil {
		t.Fatalf("migrate to DC %d: %v", dc, err)
	}
	return ns
}

func testMigrationReadYourWrites(t *testing.T, mode Mode) {
	c := newTestCluster(t, migrationConfig(mode))
	ctx := context.Background()
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sess.Close() }()

	// Write a batch of keys in DC 0, then bounce the session through every
	// other DC; each incarnation must see every write made so far and the
	// snapshot must never regress.
	var prevSnap Timestamp
	for hop := 0; hop < 4; hop++ {
		dc := DCID(hop % c.Topology().NumDCs())
		if hop > 0 {
			sess = testMigrate(t, c, sess, dc)
		}
		key := fmt.Sprintf("mig-k%d", hop)
		val := []byte(fmt.Sprintf("hop-%d", hop))
		if _, err := sess.Put(ctx, map[string][]byte{key: val}); err != nil {
			t.Fatalf("hop %d: put: %v", hop, err)
		}
		tx, err := sess.Begin(ctx)
		if err != nil {
			t.Fatalf("hop %d: begin: %v", hop, err)
		}
		for i := 0; i <= hop; i++ {
			k := fmt.Sprintf("mig-k%d", i)
			got, err := tx.Read(ctx, k)
			if err != nil {
				t.Fatalf("hop %d: read %q: %v", hop, k, err)
			}
			want := []byte(fmt.Sprintf("hop-%d", i))
			if !bytes.Equal(got[k], want) {
				t.Errorf("hop %d: read %q = %q, want %q (own write lost across migration)",
					hop, k, got[k], want)
			}
		}
		// The first read assigned the snapshot (Begin is local).
		if snap := tx.Snapshot(); snap < prevSnap {
			t.Errorf("hop %d: snapshot %v regressed below %v after migration", hop, snap, prevSnap)
		} else {
			prevSnap = snap
		}
		if _, err := tx.Commit(ctx); err != nil {
			t.Fatalf("hop %d: commit: %v", hop, err)
		}
	}
}

func TestMigrationReadYourWritesPaRiS(t *testing.T) {
	testMigrationReadYourWrites(t, ModeNonBlocking)
}

func TestMigrationReadYourWritesBPR(t *testing.T) {
	testMigrationReadYourWrites(t, ModeBlocking)
}

// testMigrationUnderPartition commits in DC 0 while DC 0 and DC 1 are
// partitioned, migrates into the isolated DC 1, and requires the migrated
// session to still read its own write: the handoff carries the causal state
// the network cannot deliver (PaRiS serves it from the client cache; BPR
// blocks on the carried ust until the partition heals and replication
// catches up).
func testMigrationUnderPartition(t *testing.T, mode Mode) {
	c := newTestCluster(t, migrationConfig(mode))
	ctx := context.Background()
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sess.Close() }()

	c.Net().SetPartitioned(0, 1, true)
	if _, err := sess.Put(ctx, map[string][]byte{"part-key": []byte("before-heal")}); err != nil {
		t.Fatalf("put under partition: %v", err)
	}
	sess = testMigrate(t, c, sess, 1)

	if mode == ModeBlocking {
		// BPR has no client cache: the read blocks until replication covers
		// the carried ust, which requires the partition to heal first. Heal
		// on a short delay so the blocked read is genuinely exercised.
		go func() {
			time.Sleep(50 * time.Millisecond)
			c.Net().SetPartitioned(0, 1, false)
		}()
	}
	vals, err := sess.Get(ctx, "part-key")
	if err != nil {
		t.Fatalf("read after migration: %v", err)
	}
	if !bytes.Equal(vals["part-key"], []byte("before-heal")) {
		t.Fatalf("read %q after migrating into partitioned DC, want %q",
			vals["part-key"], "before-heal")
	}
	c.Net().SetPartitioned(0, 1, false)

	// After healing, the migrated session keeps operating normally.
	if _, err := sess.Put(ctx, map[string][]byte{"part-key2": []byte("after-heal")}); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
	vals, err = sess.Get(ctx, "part-key", "part-key2")
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(vals["part-key"], []byte("before-heal")) ||
		!bytes.Equal(vals["part-key2"], []byte("after-heal")) {
		t.Fatalf("post-heal reads = %q/%q, want before-heal/after-heal",
			vals["part-key"], vals["part-key2"])
	}
}

func TestMigrationUnderPartitionPaRiS(t *testing.T) {
	testMigrationUnderPartition(t, ModeNonBlocking)
}

func TestMigrationUnderPartitionBPR(t *testing.T) {
	testMigrationUnderPartition(t, ModeBlocking)
}

// TestMigrationRejectsOpenTransaction pins the handoff guard: a session with
// an open transaction cannot be exported, and the original session survives
// the failed migration.
func TestMigrationRejectsOpenTransaction(t *testing.T) {
	c := newTestCluster(t, testConfig())
	ctx := context.Background()
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	tx, err := sess.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateSession(sess, 1); err == nil {
		t.Fatal("migrating a session with an open transaction should fail")
	}
	// The original session is intact: the open transaction still commits.
	if err := tx.Write("open-key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit after rejected migration: %v", err)
	}
}
