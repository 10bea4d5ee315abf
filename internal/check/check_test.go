package check

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

func hasKind(vs []Violation, kind string) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func TestEmptyHistoryIsConsistent(t *testing.T) {
	var h History
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("violations on empty history: %v", vs)
	}
}

func TestConsistentHistoryPasses(t *testing.T) {
	var h History
	// Session 1 writes x@10 (tx 1), then reads it back.
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 5, CommitTS: 10, Writes: []string{"x"}})
	h.Add(Tx{Session: 1, Seq: 2, Snapshot: 12, Reads: []ReadObs{
		{Key: "x", Writer: 1, UT: 10, Found: true},
	}})
	// Session 2 reads x@10, writes y@20 (tx 2): x → y.
	h.Add(Tx{Session: 2, Seq: 1, ID: 2, Snapshot: 11, CommitTS: 20,
		Reads:  []ReadObs{{Key: "x", Writer: 1, UT: 10, Found: true}},
		Writes: []string{"y"},
	})
	// Session 3 sees both, consistently.
	h.Add(Tx{Session: 3, Seq: 1, Snapshot: 25, Reads: []ReadObs{
		{Key: "x", Writer: 1, UT: 10, Found: true},
		{Key: "y", Writer: 2, UT: 20, Found: true},
	}})
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("false positives: %v", vs)
	}
}

func TestDetectsSnapshotRegression(t *testing.T) {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, Snapshot: 20})
	h.Add(Tx{Session: 1, Seq: 2, Snapshot: 10})
	vs := h.Check()
	if !hasKind(vs, KindMonotonicity) {
		t.Fatalf("missed snapshot regression: %v", vs)
	}
}

func TestDetectsRegressionBelowAnEarlierSnapshot(t *testing.T) {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, Snapshot: 20})
	h.Add(Tx{Session: 1, Seq: 2, Snapshot: 10})
	h.Add(Tx{Session: 1, Seq: 3, Snapshot: 15}) // above its predecessor, below tx 1
	flagged := flaggedTxs(h.Check())
	if !flagged[[2]int{1, 2}] || !flagged[[2]int{1, 3}] {
		t.Fatalf("regressions not both reported: %v", h.Check())
	}
}

func TestDetectsReadYourWritesViolation(t *testing.T) {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 5, CommitTS: 10, Writes: []string{"x"}})
	// The session then reads x but sees an older version (UT 3 < 10).
	h.Add(Tx{Session: 1, Seq: 2, Snapshot: 6, Reads: []ReadObs{
		{Key: "x", Writer: 9, UT: 3, Found: true},
	}})
	vs := h.Check()
	if !hasKind(vs, KindReadYourWrites) {
		t.Fatalf("missed read-your-writes violation: %v", vs)
	}
}

func TestDetectsMissingOwnWrite(t *testing.T) {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 5, CommitTS: 10, Writes: []string{"x"}})
	h.Add(Tx{Session: 1, Seq: 2, Snapshot: 6, Reads: []ReadObs{
		{Key: "x", Found: false},
	}})
	vs := h.Check()
	if !hasKind(vs, KindReadYourWrites) {
		t.Fatalf("missed invisible own write: %v", vs)
	}
}

func TestNewerVersionSatisfiesReadYourWrites(t *testing.T) {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 5, CommitTS: 10, Writes: []string{"x"}})
	// Someone else overwrote x at 15; seeing that is fine.
	h.Add(Tx{Session: 1, Seq: 2, Snapshot: 16, Reads: []ReadObs{
		{Key: "x", Writer: 7, UT: 15, Found: true},
	}})
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("false positive: %v", vs)
	}
}

func TestDetectsFracturedRead(t *testing.T) {
	var h History
	// Tx 5 atomically writes a and b at ts 30.
	h.Add(Tx{Session: 1, Seq: 1, ID: 5, Snapshot: 20, CommitTS: 30, Writes: []string{"a", "b"}})
	// Reader sees a from tx 5 but b at an older version.
	h.Add(Tx{Session: 2, Seq: 1, Snapshot: 31, Reads: []ReadObs{
		{Key: "a", Writer: 5, UT: 30, Found: true},
		{Key: "b", Writer: 3, UT: 8, Found: true},
	}})
	vs := h.Check()
	if !hasKind(vs, KindAtomicity) {
		t.Fatalf("missed fractured read: %v", vs)
	}
}

func TestFracturedReadNewerIsAllowed(t *testing.T) {
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 5, Snapshot: 20, CommitTS: 30, Writes: []string{"a", "b"}})
	// b was overwritten at 40 by tx 6: seeing (a@30, b@40) is consistent.
	h.Add(Tx{Session: 3, Seq: 1, ID: 6, Snapshot: 35, CommitTS: 40, Writes: []string{"b"}})
	h.Add(Tx{Session: 2, Seq: 1, Snapshot: 41, Reads: []ReadObs{
		{Key: "a", Writer: 5, UT: 30, Found: true},
		{Key: "b", Writer: 6, UT: 40, Found: true},
	}})
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("false positive: %v", vs)
	}
}

func TestDetectsCausalityViolation(t *testing.T) {
	var h History
	// Session 1: writes x@10 (tx 1) then y@20 (tx 2); so tx1 → tx2.
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 5, CommitTS: 10, Writes: []string{"x"}})
	h.Add(Tx{Session: 1, Seq: 2, ID: 2, Snapshot: 15, CommitTS: 20, Writes: []string{"y"}})
	// Reader sees y from tx2 but x at an ancient version: Y without its
	// dependency X.
	h.Add(Tx{Session: 2, Seq: 1, Snapshot: 21, Reads: []ReadObs{
		{Key: "y", Writer: 2, UT: 20, Found: true},
		{Key: "x", Writer: 8, UT: 2, Found: true},
	}})
	vs := h.Check()
	if !hasKind(vs, KindCausality) {
		t.Fatalf("missed causality violation: %v", vs)
	}
}

func TestDetectsTransitiveCausalityViolation(t *testing.T) {
	var h History
	// s1 writes x@10 (tx1). s2 reads x, writes y@20 (tx2). s3 reads y,
	// writes z@30 (tx3). tx1 → tx2 → tx3.
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 1, CommitTS: 10, Writes: []string{"x"}})
	h.Add(Tx{Session: 2, Seq: 1, ID: 2, Snapshot: 11, CommitTS: 20,
		Reads:  []ReadObs{{Key: "x", Writer: 1, UT: 10, Found: true}},
		Writes: []string{"y"}})
	h.Add(Tx{Session: 3, Seq: 1, ID: 3, Snapshot: 21, CommitTS: 30,
		Reads:  []ReadObs{{Key: "y", Writer: 2, UT: 20, Found: true}},
		Writes: []string{"z"}})
	// Reader sees z but no x at all.
	h.Add(Tx{Session: 4, Seq: 1, Snapshot: 31, Reads: []ReadObs{
		{Key: "z", Writer: 3, UT: 30, Found: true},
		{Key: "x", Found: false},
	}})
	vs := h.Check()
	if !hasKind(vs, KindCausality) {
		t.Fatalf("missed transitive causality violation: %v", vs)
	}
}

func TestCausalPastExcludesUnreadKeys(t *testing.T) {
	var h History
	// tx1 writes x, tx2 (same session) writes y. A reader that reads ONLY y
	// and sees tx2 is consistent even if it never reads x.
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 1, CommitTS: 10, Writes: []string{"x"}})
	h.Add(Tx{Session: 1, Seq: 2, ID: 2, Snapshot: 11, CommitTS: 20, Writes: []string{"y"}})
	h.Add(Tx{Session: 2, Seq: 1, Snapshot: 21, Reads: []ReadObs{
		{Key: "y", Writer: 2, UT: 20, Found: true},
	}})
	if vs := h.Check(); len(vs) != 0 {
		t.Fatalf("false positive: %v", vs)
	}
}

func TestMergeAndLen(t *testing.T) {
	var a, b History
	a.Add(Tx{Session: 1, Seq: 1})
	b.Add(Tx{Session: 2, Seq: 1})
	a.Merge(&b)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: KindAtomicity, Session: 3, Seq: 7, Detail: "boom"}
	s := v.String()
	for _, want := range []string{KindAtomicity, "3", "7", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
}

// TestViolationDetailsNameTheirEvidence pins what each report says: the
// reader's snapshot, the version it observed and the writer it skipped, and
// for rule (a) both timestamps compared.
func TestViolationDetailsNameTheirEvidence(t *testing.T) {
	ts := func(v hlc.Timestamp) string { return v.String() }
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 5, Snapshot: 20, CommitTS: 30, Writes: []string{"a", "b"}})
	// Fractured at snapshot 31: a from tx 5, b from before it.
	h.Add(Tx{Session: 2, Seq: 1, Snapshot: 31, Reads: []ReadObs{
		{Key: "a", Writer: 5, UT: 30, Found: true},
		{Key: "b", Found: false},
	}})
	// Reads a from tx 5 (committed at 30) above its snapshot 25, then commits at 28.
	h.Add(Tx{Session: 3, Seq: 1, ID: 6, Snapshot: 25, CommitTS: 28, Writes: []string{"c"},
		Reads: []ReadObs{{Key: "a", Writer: 5, UT: 30, Found: true}}})
	want := map[string][]string{
		KindAtomicity: {"snapshot " + ts(31), wire.TxID(5).String()},
		"rule (b)": {"snapshot " + ts(31), "observed " + ts(0),
			"tx " + wire.TxID(5).String() + " of session 1 committed at " + ts(30)},
		"above snapshot": {ts(30), "snapshot " + ts(25)},
		"not above":      {ts(28), ts(30), wire.TxID(5).String()},
	}
	for _, v := range h.Check() {
		for marker, parts := range want {
			if v.Kind != marker && !strings.Contains(v.Detail, marker) {
				continue
			}
			for _, p := range parts {
				if !strings.Contains(v.Detail, p) {
					t.Errorf("%v: detail lacks %q", v, p)
				}
			}
			delete(want, marker)
		}
	}
	for marker := range want {
		t.Errorf("no report matching %q in %v", marker, h.Check())
	}
}

func TestDependencyCycleIsCausalityViolation(t *testing.T) {
	// Malformed history with a read-from cycle: each transaction reads the
	// other's write, committed above its own snapshot. Rule (a) reports both.
	var h History
	h.Add(Tx{Session: 1, Seq: 1, ID: 1, Snapshot: 1, CommitTS: 10,
		Reads:  []ReadObs{{Key: "b", Writer: 2, UT: 20, Found: true}},
		Writes: []string{"a"}})
	h.Add(Tx{Session: 2, Seq: 1, ID: 2, Snapshot: 1, CommitTS: 20,
		Reads:  []ReadObs{{Key: "a", Writer: 1, UT: 10, Found: true}},
		Writes: []string{"b"}})
	flagged := map[int]bool{}
	for _, v := range h.Check() {
		if v.Kind == KindCausality {
			flagged[v.Session] = true
		}
	}
	if !flagged[1] || !flagged[2] {
		t.Fatalf("cycle not reported on both sessions: %v", h.Check())
	}
}

// checkCausalityClosure is the transitive-closure checker that rules (a) and
// (b) replaced, kept as the differential test's oracle: for each observed
// version Y, every transaction in Y's causal past that wrote a key the reader
// also read must be reflected at least at its commit timestamp.
//
// The causal past is computed transitively over (i) session order among
// write transactions and (ii) read-from edges recorded in the history.
func (h *History) checkCausalityClosure() []Violation {
	writers := h.writerOf()
	deps := h.causalPasts(writers)

	var out []Violation
	for _, tx := range h.txs {
		obs := make(map[string]ReadObs, len(tx.Reads))
		for _, r := range tx.Reads {
			obs[r.Key] = r
		}
		for _, r := range tx.Reads {
			if !r.Found || r.Writer == 0 {
				continue
			}
			for depID := range deps[r.Writer] {
				dep, ok := writers[depID]
				if !ok {
					continue
				}
				for _, dk := range dep.Writes {
					other, read := obs[dk]
					if !read {
						continue
					}
					if !other.Found || other.UT < dep.CommitTS {
						out = append(out, Violation{
							Kind: KindCausality, Session: tx.Session, Seq: tx.Seq,
							Detail: fmt.Sprintf("saw %v (dep of observed %v) missing: key %q at %v < %v",
								depID, r.Writer, dk, other.UT, dep.CommitTS),
						})
					}
				}
			}
		}
	}
	return out
}

// causalPasts returns, for every write transaction, the set of write
// transactions in its causal past (excluding itself).
func (h *History) causalPasts(writers map[wire.TxID]*Tx) map[wire.TxID]map[wire.TxID]bool {
	// Direct dependencies: per session order and read-from. Session order is
	// transitive, so a write's direct deps are just the session's previous
	// write (whose own deps cover everything earlier) plus the distinct
	// writers observed since it — keeping the dep lists short.
	direct := make(map[wire.TxID][]wire.TxID)
	for _, txs := range h.bySession() {
		var prevWrite wire.TxID
		observed := make(map[wire.TxID]bool)
		for _, tx := range txs {
			for _, r := range tx.Reads {
				if r.Found && r.Writer != 0 {
					observed[r.Writer] = true
				}
			}
			if tx.ID != 0 && len(tx.Writes) > 0 {
				deps := make([]wire.TxID, 0, len(observed)+1)
				if prevWrite != 0 {
					deps = append(deps, prevWrite)
				}
				for id := range observed {
					deps = append(deps, id)
				}
				direct[tx.ID] = deps
				prevWrite = tx.ID
				observed = make(map[wire.TxID]bool)
			}
		}
	}

	// Transitive closure by DFS with memoization.
	closure := make(map[wire.TxID]map[wire.TxID]bool, len(direct))
	var visit func(id wire.TxID) map[wire.TxID]bool
	visiting := make(map[wire.TxID]bool)
	visit = func(id wire.TxID) map[wire.TxID]bool {
		if c, ok := closure[id]; ok {
			return c
		}
		if visiting[id] {
			return nil // cycle guard; well-formed histories are acyclic
		}
		visiting[id] = true
		set := make(map[wire.TxID]bool)
		for _, dep := range direct[id] {
			if dep == id {
				continue
			}
			set[dep] = true
			for d := range visit(dep) {
				if d != id {
					set[d] = true
				}
			}
		}
		visiting[id] = false
		closure[id] = set
		return set
	}
	for id := range direct {
		visit(id)
	}
	// Transactions that only appear as writers (read-from targets recorded
	// by other sessions) have empty pasts by construction.
	for id := range writers {
		if _, ok := closure[id]; !ok {
			closure[id] = map[wire.TxID]bool{}
		}
	}
	return closure
}

// fault names what genHistory plants into one transaction.
type fault int

const (
	faultDropVersion     fault = iota // a found read observes nothing
	faultRewindVersion                // a read observes the version before the one it saw
	faultLowerSnapshot                // the recorded snapshot drops below a version read from another session
	faultRegressSnapshot              // the transaction runs below its session's last snapshot
	faultMissOwnWrite                 // the transaction reads past its own-write cache
	faultFracture                     // a writer's second key is observed at the version before it
	numFaults
)

var faultNames = [numFaults]string{"dropped version", "rewound version", "lowered snapshot",
	"regressed session snapshot", "missing own write", "fractured read"}

// version is one committed version of a key in genHistory's store.
type version struct {
	ts      hlc.Timestamp
	writer  wire.TxID
	session int
}

func (v version) obs(key string) ReadObs {
	return ReadObs{Key: key, Writer: v.writer, UT: v.ts, Found: v.writer != 0}
}

// planted is a fault that genHistory managed to plant, and where.
type planted struct {
	session, seq int
	kind         fault
}

// genHistory returns a nemesis-shaped history of n transactions that is
// consistent except for the faults it plants (faults maps a transaction's
// index to its fault) and reports. Six sessions share 120 keys, whose first
// half draws 80 % of the accesses. A transaction reads 10–20 keys at a
// snapshot that lags the commit clock by up to 30 ticks and never regresses
// within its session; half the transactions, at random, then write 3–7 keys,
// committing above everything so far. A session's own writes above its snapshot are
// served from its write cache, which each snapshot prunes.
func genHistory(rng *rand.Rand, n int, faults map[int]fault) (*History, []planted) {
	const sessions, keys = 6, 120
	pick := func() string {
		if rng.Intn(5) > 0 {
			return fmt.Sprintf("k%d", rng.Intn(keys/2))
		}
		return fmt.Sprintf("k%d", keys/2+rng.Intn(keys/2))
	}
	store := make(map[string][]version) // each key's versions, oldest first
	// at returns the freshest version of k at or below ts (zero if none).
	at := func(k string, ts hlc.Timestamp) version {
		vs := store[k]
		if i := sort.Search(len(vs), func(i int) bool { return vs[i].ts > ts }); i > 0 {
			return vs[i-1]
		}
		return version{}
	}
	writes := make(map[wire.TxID][]string)
	snaps := make([]hlc.Timestamp, sessions)
	seqs := make([]int, sessions)
	caches := make([]map[string]version, sessions)
	for i := range caches {
		caches[i] = make(map[string]version)
	}
	var clock hlc.Timestamp
	var h History
	var done []planted
	for i := 0; i < n; i++ {
		f, faulty := faults[i]
		si := rng.Intn(sessions)
		cache := caches[si]
		snap := snaps[si]
		if lag := hlc.Timestamp(rng.Intn(30)); clock > snap+lag {
			snap = clock - lag
		}
		landed := faulty && f == faultRegressSnapshot && snaps[si] > 0
		if landed {
			snap = hlc.Timestamp(rng.Int63n(int64(snaps[si])))
		}
		snaps[si] = snap
		for k, v := range cache {
			if v.ts <= snap {
				delete(cache, k)
			}
		}
		tx := Tx{Session: si, Seq: seqs[si], Snapshot: snap}
		seqs[si]++

		readKeys := make([]string, 0, 20)
		if faulty && f == faultMissOwnWrite && len(cache) > 0 {
			cached := make([]string, 0, len(cache))
			for k := range cache {
				cached = append(cached, k)
			}
			sort.Strings(cached)
			readKeys = append(readKeys, cached[rng.Intn(len(cached))])
			landed = true
		}
		for nr := 10 + rng.Intn(11); len(readKeys) < nr; {
			if k := pick(); !slices.Contains(readKeys, k) {
				readKeys = append(readKeys, k)
			}
		}
		for _, k := range readKeys {
			v, ok := cache[k]
			if !ok || f == faultMissOwnWrite && faulty {
				v = at(k, snap)
			}
			tx.Reads = append(tx.Reads, v.obs(k))
		}

		if faulty {
			switch f {
			case faultDropVersion, faultRewindVersion:
				r := &tx.Reads[rng.Intn(len(tx.Reads))]
				if r.Found {
					before := version{}
					if f == faultRewindVersion {
						before = at(r.Key, r.UT-1)
					}
					*r = before.obs(r.Key)
					landed = true
				}
			case faultLowerSnapshot:
				for _, r := range tx.Reads {
					if r.Found && r.UT <= snap && at(r.Key, r.UT).session != si && r.UT-1 < tx.Snapshot {
						tx.Snapshot, landed = r.UT-1, true
					}
				}
			case faultFracture:
				for _, r := range tx.Reads {
					if !r.Found || r.UT > snap || len(writes[r.Writer]) < 2 {
						continue
					}
					k2 := writes[r.Writer][0]
					if k2 == r.Key {
						k2 = writes[r.Writer][1]
					}
					stale := at(k2, r.UT-1).obs(k2)
					if m := slices.IndexFunc(tx.Reads, func(o ReadObs) bool { return o.Key == k2 }); m >= 0 {
						tx.Reads[m] = stale
					} else {
						tx.Reads = append(tx.Reads, stale)
					}
					landed = true
					break
				}
			}
		}
		if landed {
			done = append(done, planted{si, tx.Seq, f})
		}

		if rng.Intn(2) == 0 {
			clock += 1 + hlc.Timestamp(rng.Intn(3))
			tx.ID, tx.CommitTS = wire.TxID(i+1), clock
			for nw := 3 + rng.Intn(5); len(tx.Writes) < nw; {
				if k := pick(); !slices.Contains(tx.Writes, k) {
					tx.Writes = append(tx.Writes, k)
				}
			}
			v := version{ts: clock, writer: tx.ID, session: si}
			for _, k := range tx.Writes {
				store[k] = append(store[k], v)
				cache[k] = v
			}
			writes[tx.ID] = tx.Writes
		}
		h.Add(tx)
	}
	return &h, done
}

// flaggedTxs returns the (session, seq) pairs that vs name.
func flaggedTxs(vs []Violation) map[[2]int]bool {
	out := make(map[[2]int]bool, len(vs))
	for _, v := range vs {
		out[[2]int{v.Session, v.Seq}] = true
	}
	return out
}

func TestGeneratedHistoriesAreConsistent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		h, _ := genHistory(rand.New(rand.NewSource(seed)), 500, nil)
		if vs := h.checkCausalityClosure(); len(vs) != 0 {
			t.Fatalf("seed %d: oracle reports %d, first %v", seed, len(vs), vs[0])
		}
		if seed <= 3 {
			h, _ = genHistory(rand.New(rand.NewSource(seed)), 10000, nil)
		}
		if vs := h.Check(); len(vs) != 0 {
			t.Fatalf("seed %d: %d false positives, first %v", seed, len(vs), vs[0])
		}
	}
}

// TestClosureOracleDifferential plants faults of every kind into generated
// histories and requires every transaction the closure oracle flags, and
// every planted fault, to be flagged by Check. Check's extra reports are
// logged by class.
func TestClosureOracleDifferential(t *testing.T) {
	const seeds = 300
	var oracleFlags, extra int
	var caught [numFaults]int
	classes := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(401)
		faults := map[int]fault{}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			faults[rng.Intn(n)] = fault(rng.Intn(int(numFaults)))
		}
		h, done := genHistory(rng, n, faults)
		vs := h.Check()
		got := flaggedTxs(vs)
		oracle := h.checkCausalityClosure()
		for _, v := range vs {
			if v.Kind != KindCausality {
				oracle = append(oracle, v) // the session and atomicity checks are shared
			}
		}
		want := flaggedTxs(oracle)
		for tx := range want {
			if !got[tx] {
				t.Errorf("seed %d: oracle flags session %d tx %d, Check does not", seed, tx[0], tx[1])
			}
		}
		for _, p := range done {
			if !got[[2]int{p.session, p.seq}] {
				t.Errorf("seed %d: planted %s in session %d tx %d went unreported", seed, faultNames[p.kind], p.session, p.seq)
			}
			caught[p.kind]++
		}
		oracleFlags += len(want)
		for _, v := range vs {
			if tx := [2]int{v.Session, v.Seq}; !want[tx] {
				extra++
				want[tx] = true
				classes[v.Detail[:strings.Index(v.Detail, ":")]]++
			}
		}
	}
	for kind, n := range caught {
		if n == 0 {
			t.Errorf("no %s planted in %d seeds", faultNames[kind], seeds)
		}
	}
	t.Logf("%d seeds: the oracle flagged %d transactions, Check all of them and %d more %v; planted faults caught %v",
		seeds, oracleFlags, extra, classes, caught)
}

func BenchmarkHistoryCheck(b *testing.B) {
	h, _ := genHistory(rand.New(rand.NewSource(1)), 10000, nil)
	for b.Loop() {
		if vs := h.Check(); len(vs) != 0 {
			b.Fatalf("%d violations, first %v", len(vs), vs[0])
		}
	}
}
