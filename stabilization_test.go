package paris

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// The stabilization plane is one round per server (internal/server
// stability.go): rounds start together at the wall-clock multiples of ΔR, every
// input carries the label of its round, and every node pushes as soon as its
// inputs are in for the next round. These tests pin what that
// buys (commit→universally-visible latency), what it may cost (one message
// per tree edge per round, no more), and that nothing about it is needed for
// safety: under faults the UST stands still, never regresses, and resumes.

// stabConfig is the benchmark's deployment — 3 DCs × 6 partitions × RF 2,
// ΔR 5 ms — on zero-latency links.
func stabConfig() Config {
	return Config{
		NumDCs:            3,
		NumPartitions:     6,
		ReplicationFactor: 2,
		Latency:           transport.ZeroLatency{},
		ApplyInterval:     5 * time.Millisecond,
	}
}

// commitToVisible commits one write through s and returns how long the
// commit took to become universally visible (every server's UST at or above
// its commit time), polling at 100 µs.
func commitToVisible(t *testing.T, c *Cluster, s *Session, key string) time.Duration {
	t.Helper()
	ct, err := s.Put(context.Background(), map[string][]byte{key: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for c.MinUST() < ct {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("commit %v not universally visible after 5s (min UST %v)", ct, c.MinUST())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start)
}

// TestStabilizationVisibilityLatency is the latency regression: with every
// interval at 5 ms and links that deliver at once, a commit waits for the
// next round to start (2.5 ms on average) and then only for hops. With one
// unsynchronized timer per stage the median was 18 ms.
func TestStabilizationVisibilityLatency(t *testing.T) {
	c := newTestCluster(t, stabConfig())
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const commits = 60
	lat := make([]time.Duration, 0, commits)
	for i := 0; i < commits; i++ {
		lat = append(lat, commitToVisible(t, c, s, fmt.Sprintf("vis-%d", i)))
		time.Sleep(1300 * time.Microsecond) // drift across the round's phase
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	median := lat[len(lat)/2]
	t.Logf("commit→universally-visible over %d commits: p50 %v  p90 %v  max %v", commits, median, lat[len(lat)*9/10], lat[len(lat)-1])
	if limit := 10 * time.Millisecond; median > limit {
		t.Fatalf("median commit→universally-visible %v, want ≤ %v", median, limit)
	}
}

// The 3×6×2 deployment has 4 servers per DC in a tree of depth 2 — 3 edges
// per DC — and 3 roots that exchange pairwise: one round may put this many
// stabilization messages on the network, and nothing more.
const (
	stabUpPerRound   = 9
	stabRootPerRound = 6
	stabDownPerRound = 9
	stabTreeDepth    = 2
)

// roundMeter counts the rounds a cluster has run by what every round sends
// exactly once whatever happens to the stabilization plane: one
// ReplicateBatch per server and peer replica (12 here). Counting rounds this
// way rather than by the wall clock keeps the assertions below about the
// protocol on a host that stalls.
type roundMeter struct {
	c    *Cluster
	base map[wire.Kind]uint64
}

func meterRounds(c *Cluster) roundMeter {
	return roundMeter{c: c, base: c.Net().MessagesByKind()}
}

// waitRounds lets the cluster run n more rounds — rounds, not milliseconds, so
// that "everything has settled" means the same on a slow host.
func waitRounds(c *Cluster, n float64) {
	for m := meterRounds(c); m.rounds() < n; {
		time.Sleep(time.Millisecond)
	}
}

func (m roundMeter) rounds() float64 {
	perRound := len(m.c.Servers()) * (m.c.Config().ReplicationFactor - 1)
	return float64(m.sent(wire.KindReplicateBatch)) / float64(perRound)
}

func (m roundMeter) sent(k wire.Kind) uint64 {
	return m.c.Net().MessagesByKind()[k] - m.base[k]
}

// withinBudget checks the three stabilization kinds against the per-round
// budget over the rounds the meter has seen; atLeast is the share of the
// budget that must have been used (0 under faults, where pushes get lost).
func (m roundMeter) withinBudget(t *testing.T, what string, atLeast float64) {
	t.Helper()
	rounds := m.rounds()
	for _, b := range []struct {
		kind     wire.Kind
		perRound float64
	}{{wire.KindGSTUp, stabUpPerRound}, {wire.KindGSTRoot, stabRootPerRound}, {wire.KindUSTDown, stabDownPerRound}} {
		got := float64(m.sent(b.kind))
		// Two rounds of slack: the window cuts through a round at either end,
		// and the round a stalled node completes again may carry its liveness
		// push and its ready push.
		if hi := b.perRound * (rounds + 2); got > hi {
			t.Errorf("%s: %v %v over %.1f rounds, budget %v per round", what, got, b.kind, rounds, b.perRound)
		}
		if lo := atLeast * b.perRound * (rounds - 1); got < lo {
			t.Errorf("%s: only %v %v over %.1f rounds, want at least %.0f%% of %v per round", what, got, b.kind, rounds, 100*atLeast, b.perRound)
		}
	}
}

// loadStab keeps one writing session per DC busy until stop is closed. Each
// writes only keys of its coordinator's own partition, so a commit prepares
// locally and the links inside a DC carry nothing but stabilization traffic —
// a fault injected there touches no transaction.
func loadStab(t *testing.T, c *Cluster, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for dc := 0; dc < c.Config().NumDCs; dc++ {
		p := c.Topology().PartitionsAt(DCID(dc))[0]
		s, err := c.NewSessionAt(DCID(dc), int(p))
		if err != nil {
			t.Fatal(err)
		}
		keys := benchKeysOn(c.Topology(), p, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Put(context.Background(), map[string][]byte{keys[i%len(keys)]: []byte("v")}); err != nil {
					t.Errorf("load: %v", err)
					return
				}
				time.Sleep(300 * time.Microsecond)
			}
		}()
	}
	return &wg
}

// TestStabilizationMessageBudget: under load every tree edge carries exactly
// one GSTUp and one USTDown per round and every pair of roots one GSTRoot each
// way — the latency above is bought with phase, not with traffic.
func TestStabilizationMessageBudget(t *testing.T) {
	c := newTestCluster(t, stabConfig())
	stop := make(chan struct{})
	wg := loadStab(t, c, stop)
	waitRounds(c, 30) // every node active, every gate in step

	m := meterRounds(c)
	for m.rounds() < 40 {
		time.Sleep(5 * time.Millisecond)
	}
	m.withinBudget(t, "loaded", 0.9)
	close(stop)
	wg.Wait()
}

// ustWatch samples every server's UST until stopped and fails the test if one
// ever moves backwards.
func ustWatch(t *testing.T, c *Cluster) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make(map[topology.NodeID]Timestamp)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, srv := range c.Servers() {
				ust := srv.UST()
				if ust < last[srv.ID()] {
					t.Errorf("UST of %v regressed from %v to %v", srv.ID(), last[srv.ID()], ust)
				}
				last[srv.ID()] = ust
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() { close(done); wg.Wait() }
}

func maxUST(c *Cluster) Timestamp {
	var high Timestamp
	for _, srv := range c.Servers() {
		high = max(high, srv.UST())
	}
	return high
}

// TestStabilizationFaults: a child whose tree edge is blackholed (its pushes
// vanish, and so would its parent's announcements), then an isolated DC.
// Nothing about readiness pushes is needed for safety, so under either fault
// the plane keeps to its budget (a node whose rounds cannot complete sends a
// liveness push per tick), the UST stands still everywhere without ever
// regressing, and it moves again within two rounds of the heal.
func TestStabilizationFaults(t *testing.T) {
	c := newTestCluster(t, stabConfig())
	stopWatch := ustWatch(t, c)
	defer stopWatch()
	stop := make(chan struct{})
	wg := loadStab(t, c, stop)
	defer func() { close(stop); wg.Wait() }()
	waitRounds(c, 30)

	numDCs := c.Config().NumDCs
	local := c.Topology().PartitionsAt(0)
	parent, child := topology.ServerID(0, local[0]), topology.ServerID(0, local[1])
	blackhole := func(f transport.LinkFault) {
		c.Net().SetLinkFault(child, parent, f)
		c.Net().SetLinkFault(parent, child, f)
	}
	for _, fault := range []struct {
		name         string
		inject, heal func()
	}{
		{"child blackholed",
			func() { blackhole(transport.FaultBlackhole) },
			func() { blackhole(transport.FaultNone) }},
		{"DC isolated",
			func() { c.Net().IsolateDC(1, true, numDCs) },
			func() { c.Net().IsolateDC(1, false, numDCs) }},
	} {
		// Three episodes: the protocol's share of the resume time repeats, a
		// late timer's does not (on a virtual machine one tick in a hundred is
		// most of a round late, and a round is as late as its latest tick).
		var resumed []float64
		for episode := 0; episode < 3; episode++ {
			fault.inject()
			m := meterRounds(c)
			for m.rounds() < 6 { // what was in flight has landed
				time.Sleep(time.Millisecond)
			}
			frozen := maxUST(c)
			for m.rounds() < 30 {
				time.Sleep(time.Millisecond)
			}
			if now := maxUST(c); now != frozen {
				t.Errorf("%s: UST moved from %v to %v during the fault", fault.name, frozen, now)
			}
			m.withinBudget(t, fault.name, 0)

			fault.heal()
			m = meterRounds(c)
			for c.MinUST() <= frozen {
				if m.rounds() > 40 {
					t.Fatalf("%s: UST still at %v forty rounds after the heal", fault.name, frozen)
				}
				runtime.Gosched() // a sleep here is a millisecond or more on a virtual machine
			}
			resumed = append(resumed, m.rounds())
			waitRounds(c, 10) // back in step before the next fault
		}
		sort.Float64s(resumed)
		// Two rounds, plus the one the heal cut into.
		if resumed[1] > 3 {
			t.Errorf("%s: UST resumed %.1f rounds after the heal (median of %v), want within two", fault.name, resumed[1], resumed)
		} else {
			t.Logf("%s: UST resumed %v rounds after the heal", fault.name, resumed)
		}
	}
}

// TestStabilizationIdle: a cluster nobody writes to falls back to one push
// per 32 rounds and edge — the rate BENCH_PR10.json recorded for the plane
// this one replaced — and the first write after the quiet spell wakes it up:
// the liveness pushes of nodes whose idle children held their rounds back
// carry the Active bit past idle siblings to the root, one round per tree
// level at worst, the roots relay it across and down, and the woken nodes,
// whose held pushes leave at once, report within the round.
func TestStabilizationIdle(t *testing.T) {
	raw, err := os.ReadFile("BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	var pr10 struct {
		Summary map[string]float64 `json:"summary"`
	}
	if err := json.Unmarshal(raw, &pr10); err != nil {
		t.Fatal(err)
	}
	ceiling := 1.2 * pr10.Summary["gossip_idle_msgs_per_sec_delta"]
	if ceiling == 0 {
		t.Fatal("BENCH_PR10.json has no gossip_idle_msgs_per_sec_delta")
	}

	c := newTestCluster(t, stabConfig())
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commitToVisible(t, c, s, "before the quiet spell")

	// The activity window is 16 rounds at every hop of the Active cascade.
	time.Sleep(400 * time.Millisecond)
	m, start := meterRounds(c), time.Now()
	time.Sleep(2 * time.Second)
	gossip := m.sent(wire.KindGSTUp) + m.sent(wire.KindGSTRoot) + m.sent(wire.KindUSTDown)
	if rate := float64(gossip) / time.Since(start).Seconds(); rate > ceiling {
		t.Errorf("idle gossip %.0f msgs/s, want ≤ %.0f (BENCH_PR10.json × 1.2)", rate, ceiling)
	} else {
		t.Logf("idle gossip %.0f msgs/s (ceiling %.0f)", rate, ceiling)
	}

	// Three quiet spells, for the reason TestStabilizationFaults runs three
	// episodes.
	var woke []float64
	for spell := 0; spell < 3; spell++ {
		if spell > 0 {
			time.Sleep(400 * time.Millisecond)
		}
		m = meterRounds(c)
		commitToVisible(t, c, s, "after the quiet spell")
		woke = append(woke, m.rounds())
	}
	sort.Float64s(woke)
	// The round the commit fell into does not count.
	if woke[1] > stabTreeDepth+2+1 {
		t.Errorf("first write after a quiet spell took %.1f rounds to become universally visible (median of %v), want ≤ %d", woke[1], woke, stabTreeDepth+2)
	} else {
		t.Logf("first write after a quiet spell universally visible after %v rounds", woke)
	}
}
