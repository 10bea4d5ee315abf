package server

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// These tests drive the inquiry table by hand-stepped rounds: a refused
// CohortCommit re-sent as CommitRecover on its backoff rounds until the cohort
// answers or the retention horizon passes, the reaper's fate queries once per
// sweep, and a Stop that releases every question still outstanding.

// awaitReplies waits until every outstanding attempt in s's inquiry table has
// its reply buffered, so that the next round acts on it. It spins rather than
// sleeps; the bound only turns a lost reply into a failure.
func awaitReplies(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, e := range s.inq.open {
		for e.reply != nil && len(e.reply) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no reply from %v to %v", e.key.to, e.msg.Kind())
			}
			runtime.Gosched()
		}
	}
}

// sendLog is an Endpoint that records the label of the sender's last round
// with every request it sends, by message kind and transaction.
type sendLog struct {
	transport.Endpoint
	s  *Server
	mu sync.Mutex
	at map[wire.Kind]map[wire.TxID][]int64
}

func logSends(s *Server, ep transport.Endpoint) *sendLog {
	l := &sendLog{Endpoint: ep, s: s, at: make(map[wire.Kind]map[wire.TxID][]int64)}
	s.Peer().Attach(l)
	return l
}

func (l *sendLog) Send(env transport.Envelope) error {
	var id wire.TxID
	switch m := env.Msg.(type) {
	case wire.CommitRecover:
		id = m.TxID
	case wire.TxStatusReq:
		id = m.TxID
	}
	if id != 0 {
		l.mu.Lock()
		if l.at[env.Msg.Kind()] == nil {
			l.at[env.Msg.Kind()] = make(map[wire.TxID][]int64)
		}
		l.at[env.Msg.Kind()][id] = append(l.at[env.Msg.Kind()][id], l.s.label())
		l.mu.Unlock()
	}
	return l.Endpoint.Send(env)
}

// sent returns the labels at which a request of kind k about id was sent.
func (l *sendLog) sent(k wire.Kind, id wire.TxID) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.at[k][id])
}

// refuseOnPrepare hands deliveries to a cohort's peer, and refuses the
// coordinator→cohort link from the moment a prepare arrives: the prepare is
// acknowledged, and the CohortCommit cast that follows is refused.
type refuseOnPrepare struct {
	transport.Handler
	net           *transport.MemNet
	coord, cohort topology.NodeID
}

func (r refuseOnPrepare) Deliver(env transport.Envelope) {
	if env.Msg.Kind() == wire.KindPrepareReq {
		r.net.SetLinkFault(r.coord, r.cohort, transport.FaultError)
	}
	r.Handler.Deliver(env)
}

// refusingPair wires a coordinator in DC 0 (partition 0) and a cohort of
// partition 1 in DC 1, the coordinator's preferred replica of it, whose link
// from the coordinator refuses every send once a prepare has arrived. It
// returns both servers, neither started, the network and the coordinator's
// send log.
func refusingPair(t *testing.T, preparedTTL time.Duration) (coord, cohort *Server, net *transport.MemNet, log *sendLog) {
	t.Helper()
	topo, err := topology.New(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	net = transport.NewMemNet(nil)
	t.Cleanup(func() { _ = net.Close() })
	newServer := func(id topology.NodeID) *Server {
		srv, err := New(Config{ID: id, Topology: topo, Mode: ModeNonBlocking,
			ApplyInterval: 5 * time.Millisecond, PreparedTTL: preparedTTL})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		return srv
	}
	coord, cohort = newServer(topology.ServerID(0, 0)), newServer(topology.ServerID(1, 1))
	ep, err := net.Register(coord.self, coord.Peer())
	if err != nil {
		t.Fatal(err)
	}
	log = logSends(coord, ep)
	if ep, err = net.Register(cohort.self, refuseOnPrepare{Handler: cohort.Peer(),
		net: net, coord: coord.self, cohort: cohort.self}); err != nil {
		t.Fatal(err)
	}
	cohort.Peer().Attach(ep)
	return coord, cohort, net, log
}

// commitWithRefusedCast commits one write to partition 0 (the coordinator's
// own) and one to partition 1 through refusingPair, so the CohortCommit cast
// to the cohort of partition 1 is refused. It returns both servers, neither
// started, the network, the coordinator's send log and the transaction's id.
func commitWithRefusedCast(t *testing.T, preparedTTL time.Duration) (coord, cohort *Server, net *transport.MemNet, log *sendLog, id wire.TxID) {
	t.Helper()
	coord, cohort, net, log = refusingPair(t, preparedTTL)
	topo := coord.cfg.Topology
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	resp := coord.handleCommit(wire.CommitReq{TxID: start.TxID, Writes: []wire.KV{
		{Key: keyForPartition(t, topo, 0), Value: []byte("v")},
		{Key: keyForPartition(t, topo, 1), Value: []byte("v")}}})
	if _, ok := resp.(wire.CommitResp); !ok {
		t.Fatalf("commit answered %#v", resp)
	}
	if got := coord.Metrics().CommitConfirms; got != 1 {
		t.Fatalf("CommitConfirms = %d after a refused cast, want 1", got)
	}
	if cohort.PendingPrepared() != 1 {
		t.Fatalf("cohort holds %d prepared entries, want 1", cohort.PendingPrepared())
	}
	return coord, cohort, net, log, start.TxID
}

// TestSoleCommitLeavesNothingToConfirm is the one-partition twin of
// commitWithRefusedCast: the cohort commits in the prepare itself, so the
// link refused after it costs nothing — no cast is tried, no confirmation is
// opened, and the cohort holds the commit, not a prepared entry.
func TestSoleCommitLeavesNothingToConfirm(t *testing.T) {
	coord, cohort, _, _ := refusingPair(t, 0)
	start := coord.handleStartTx(wire.StartTxReq{}).(wire.StartTxResp)
	resp := coord.handleCommit(wire.CommitReq{TxID: start.TxID, Writes: []wire.KV{
		{Key: keyForPartition(t, coord.cfg.Topology, 1), Value: []byte("v")}}})
	cr, ok := resp.(wire.CommitResp)
	if !ok {
		t.Fatalf("commit answered %#v", resp)
	}
	coord.applyTick(1, 1)
	if got := coord.Metrics().CommitConfirms; got != 0 || len(coord.inq.open) != 0 {
		t.Fatalf("CommitConfirms = %d, %d inquiries open; want none", got, len(coord.inq.open))
	}
	if cohort.PendingPrepared() != 0 || cohort.PendingCommitted() != 1 {
		t.Fatalf("cohort holds %d prepared and %d committed, want 0 and 1",
			cohort.PendingPrepared(), cohort.PendingCommitted())
	}
	tab := &cohort.twoPC
	tab.mu.Lock()
	ct := tab.committed[0].ct
	tab.mu.Unlock()
	if ct != cr.CommitTS {
		t.Fatalf("cohort committed at %v, the client was told %v", ct, cr.CommitTS)
	}
}

// TestRefusedCohortCommitConfirmedOnItsRounds: a CohortCommit cast refused
// after the prepare was acknowledged is re-sent as CommitRecover on the rounds
// its backoff dictates — the first on the round after the commit, then 2, 4,
// 8, … rounds apart up to ⌈100 ms/ΔR⌉ — and once the link heals the cohort
// commits on the attempt's round and the coordinator counts the
// confirmation on the next.
func TestRefusedCohortCommitConfirmedOnItsRounds(t *testing.T) {
	coord, cohort, net, log, id := commitWithRefusedCast(t, 0)
	maxGap := coord.cfg.rounds(100 * time.Millisecond)

	var want []int64
	at, gap := int64(1), int64(1)
	for ; at <= 100; at += gap {
		want = append(want, at)
		gap = min(2*gap, maxGap)
	}
	for r := int64(1); r <= 100; r++ {
		coord.applyTick(r, r)
	}
	if got := log.sent(wire.KindCommitRecover, id); !slices.Equal(got, want) {
		t.Fatalf("CommitRecover sent at rounds %v, want %v", got, want)
	}
	if got := coord.Metrics().CommitConfirmed; got != 0 {
		t.Fatalf("CommitConfirmed = %d while the link refuses, want 0", got)
	}

	net.SetLinkFault(coord.self, cohort.self, transport.FaultNone)
	for r := int64(101); r < at; r++ {
		coord.applyTick(r, r)
	}
	if got := len(log.sent(wire.KindCommitRecover, id)); got != len(want) {
		t.Fatalf("%d CommitRecover sends before round %d, want %d", got, at, len(want))
	}
	coord.applyTick(at, at)
	awaitReplies(t, coord)
	if cohort.PendingPrepared() != 0 || cohort.PendingCommitted() != 1 || cohort.Metrics().CommitsRecovered != 1 {
		t.Fatalf("cohort after the healed attempt: %d prepared, %d committed, %d recovered; want 0, 1, 1",
			cohort.PendingPrepared(), cohort.PendingCommitted(), cohort.Metrics().CommitsRecovered)
	}
	if got := coord.Metrics().CommitConfirmed; got != 0 {
		t.Fatalf("CommitConfirmed = %d before the round that reads the answer, want 0", got)
	}
	coord.applyTick(at+1, at+1)
	if got := coord.Metrics().CommitConfirmed; got != 1 {
		t.Fatalf("CommitConfirmed = %d, want 1", got)
	}
	if n, p := len(coord.inq.open), coord.Peer().Pending(); n != 0 || p != 0 {
		t.Fatalf("%d inquiries open and %d calls pending after the answer, want none", n, p)
	}
}

// TestCommitConfirmationGivesUpAtItsLabel: toward a cohort that went silent
// (its link blackholed after the refused cast), the confirmation is abandoned
// exactly at the label rounds(abortedRetention()) after the commit, not one
// round earlier, and takes its outstanding attempt with it.
func TestCommitConfirmationGivesUpAtItsLabel(t *testing.T) {
	const ttl = 50 * time.Millisecond
	coord, cohort, net, log, id := commitWithRefusedCast(t, ttl)
	net.SetLinkFault(coord.self, cohort.self, transport.FaultBlackhole)
	giveUp := coord.cfg.rounds(coord.cfg.abortedRetention())
	if giveUp != 40 {
		t.Fatalf("give-up label %d, want 40 (4×PreparedTTL at ΔR 5 ms)", giveUp)
	}

	for r := int64(1); r < giveUp; r++ {
		coord.applyTick(r, r)
	}
	if n, p := len(coord.inq.open), coord.Peer().Pending(); n != 1 || p != 1 {
		t.Fatalf("round %d: %d inquiries open, %d calls pending; want 1, 1", giveUp-1, n, p)
	}
	if got, want := log.sent(wire.KindCommitRecover, id), []int64{1, 3, 7, 15, 31}; !slices.Equal(got, want) {
		t.Fatalf("CommitRecover sent at rounds %v, want %v", got, want)
	}
	coord.applyTick(giveUp, giveUp)
	if n, p := len(coord.inq.open), coord.Peer().Pending(); n != 0 || p != 0 {
		t.Fatalf("round %d: %d inquiries open, %d calls pending; want none", giveUp, n, p)
	}
	if got := coord.Metrics().CommitConfirmed; got != 0 {
		t.Fatalf("CommitConfirmed = %d toward a silent cohort, want 0", got)
	}
	if got := len(log.sent(wire.KindCommitRecover, id)); got != 5 {
		t.Fatalf("%d CommitRecover sends, want 5", got)
	}
}

// TestReaperQueriesOrphansOncePerSweep: orphaned prepares whose coordinator is
// blackholed are asked about once per reaper sweep each, with one attempt
// outstanding per orphan and no goroutine per question — 100 orphans cost as
// many goroutines as one — until the hard reap, which leaves neither an
// inquiry nor a pending call behind.
func TestReaperQueriesOrphansOncePerSweep(t *testing.T) {
	const dR = 5 * time.Millisecond
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.ApplyInterval = dR
		c.PreparedTTL = 8 * dR // soft cutoff 8 rounds, hard 16, sweeps on odd labels
	})
	s := rig.srv
	rig.net.SetNodeFault(topology.ServerID(1, 0), transport.FaultBlackhole)
	log := logSends(s, rig.ep)
	// Every orphan is stamped at label -6: past the soft cutoff from the
	// sweep at label 3 on, past the hard one at the sweep at label 11.
	orphan := func(seq uint64) wire.TxID {
		id := wire.NewTxID(1, 0, seq)
		s.handlePrepare(wire.PrepareReq{TxID: id, HT: 100, Writes: []wire.KV{{Key: "k", Value: []byte("v")}}})
		tab := &s.twoPC
		tab.mu.Lock()
		tab.prepared[id].at = -6
		tab.mu.Unlock()
		return id
	}
	ids := []wire.TxID{orphan(1)}

	var one, hundred int
	for r := int64(1); r <= 11; r++ {
		s.applyTick(r, r)
		switch r {
		case 3:
			one = runtime.NumGoroutine()
		case 4:
			for seq := uint64(2); seq <= 100; seq++ {
				ids = append(ids, orphan(seq))
			}
		case 5:
			hundred = runtime.NumGoroutine()
		}
		if r >= 5 && r < 11 {
			if n, p := len(s.inq.open), s.Peer().Pending(); n != 100 || p != 100 {
				t.Fatalf("round %d: %d inquiries open, %d calls pending; want 100, 100", r, n, p)
			}
		}
	}
	if hundred != one {
		t.Fatalf("%d goroutines with 100 orphans asked about, %d with one", hundred, one)
	}
	for i, id := range ids {
		want := []int64{5, 7, 9}
		if i == 0 {
			want = []int64{3, 5, 7, 9}
		}
		if got := log.sent(wire.KindTxStatusReq, id); !slices.Equal(got, want) {
			t.Fatalf("orphan %d asked about at rounds %v, want %v", i, got, want)
		}
	}
	if got := s.Metrics().TxReaped; got != 100 {
		t.Fatalf("TxReaped = %d after the hard cutoff, want 100", got)
	}
	if n, p := len(s.inq.open), s.Peer().Pending(); n != 0 || p != 0 {
		t.Fatalf("after the hard reap: %d inquiries open, %d calls pending; want none", n, p)
	}
}

// TestStopReleasesOutstandingInquiries: Stop does not wait on a question a
// blackholed peer will never answer, however long CallTimeout is; closing the
// peer withdraws every attempt still outstanding.
func TestStopReleasesOutstandingInquiries(t *testing.T) {
	const dR = 5 * time.Millisecond
	rig := newTestRig(t, ModeNonBlocking, func(c *Config) {
		c.ApplyInterval = dR
		c.CallTimeout = time.Hour
		c.PreparedTTL = 4 * dR // the reaper sweeps every round
	})
	s := rig.srv
	rig.net.SetNodeFault(topology.ServerID(1, 0), transport.FaultBlackhole)
	for seq := uint64(1); seq <= 10; seq++ {
		s.handlePrepare(wire.PrepareReq{TxID: wire.NewTxID(1, 0, seq), HT: 100,
			Writes: []wire.KV{{Key: "k", Value: []byte("v")}}})
	}
	agePrepared(s, 5*dR)
	s.applyTick(1, 1)
	if p := s.Peer().Pending(); p != 10 {
		t.Fatalf("%d calls pending before Stop, want 10", p)
	}

	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop did not return within 1 s with inquiries outstanding")
	}
	if p := s.Peer().Pending(); p != 0 {
		t.Fatalf("%d calls pending after Stop, want 0", p)
	}
}
