package nemesis

import (
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/workload"
)

// Sizing for the slow_link_degradation scenario, exported so the pinned
// regression test asserts the sender-side memory bound against the same
// high water the scenario's chunk cap derives. The budget is tiny relative to
// the LargeValues write volume so every destination's queue fills and
// degrades deterministically even in a -short fault phase, and the chunk cap
// is a quarter of the high water so a single round always fits once a queue
// drains (no shed/resume flapping without progress).
const (
	SlowLinkBudget    = 2 << 10              // replication bytes/second per destination
	SlowLinkBatchMax  = 2 << 10              // replication chunk cap (bytes)
	SlowLinkHighWater = 4 * SlowLinkBatchMax // per-destination send-queue bound (bytes)
)

// setDCPairSlow applies (or with the zero value clears) a slow-link fault on
// every directed link between two data centers — one constrained WAN pipe.
func setDCPairSlow(e *Env, a, b topology.DCID, f transport.FaultSlowLink) {
	net := e.Cluster.Net()
	for _, x := range e.Topo.AllServers() {
		for _, y := range e.Topo.AllServers() {
			if (x.DC == a && y.DC == b) || (x.DC == b && y.DC == a) {
				net.SetLinkSlow(x, y, f)
			}
		}
	}
}

// scenarios is the named suite. Each entry composes at least two fault
// primitives; the suite as a whole covers every primitive the network
// offers, one crash/restart episode and one clock-skew episode included.
// Keep the list in sync with the README's "Nemesis & workloads" section.
var scenarios = []Scenario{
	{
		Name: "partition_blackhole",
		Info: "DC partitions composed with whole-node blackholes on a third DC's replica",
		Mix:  workload.HotSpot,
		Script: func(e *Env) {
			for {
				a, b := e.RandDCPair()
				node := e.RandServer()
				e.Cluster.Net().SetPartitioned(a, b, true)
				e.Cluster.Net().SetNodeFault(node, transport.FaultBlackhole)
				e.Logf("partition DC%d|DC%d + blackhole %v", a, b, node)
				if !e.Sleep(e.Jitter(120 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetPartitioned(a, b, false)
				e.Cluster.Net().SetNodeFault(node, transport.FaultNone)
				e.Logf("heal DC%d|DC%d + %v", a, b, node)
				if !e.Sleep(e.Jitter(60 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name: "asymmetric_links",
		Info: "one-direction link errors (requests arrive, replies vanish) under a concurrent DC partition",
		Mix:  workload.Variable,
		Script: func(e *Env) {
			for {
				// Two directed faults between distinct nodes: each link
				// carries traffic one way and refuses it the other, the
				// half-open connections real networks produce.
				x, y := e.RandServer(), e.RandServer()
				for y == x {
					y = e.RandServer()
				}
				a, b := e.RandDCPair()
				e.Cluster.Net().SetLinkFault(x, y, transport.FaultError)
				e.Cluster.Net().SetPartitioned(a, b, true)
				e.Logf("half-open %v->%v + partition DC%d|DC%d", x, y, a, b)
				if !e.Sleep(e.Jitter(100 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetLinkFault(x, y, transport.FaultNone)
				e.Cluster.Net().SetPartitioned(a, b, false)
				e.Logf("heal %v->%v + DC%d|DC%d", x, y, a, b)
				if !e.Sleep(e.Jitter(50 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name: "crash_restart",
		Info: "process crash with in-flight 2PC decisions, restart replaying the 2PC log under recovery hold, concurrent DC partition",
		Mix:  workload.WriteHeavy,
		Script: func(e *Env) {
			for {
				node := e.RandServer()
				a, b := e.RandDCPair()
				// Partition first so some commit decisions are in flight
				// toward the victim when it dies.
				e.Cluster.Net().SetPartitioned(a, b, true)
				e.Logf("partition DC%d|DC%d", a, b)
				if !e.Sleep(e.Jitter(40 * time.Millisecond)) {
					return
				}
				crashed := e.Crash(node)
				if !e.Sleep(e.Jitter(100 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetPartitioned(a, b, false)
				if crashed {
					e.Restart(node, recoveryHold)
				}
				e.Logf("heal DC%d|DC%d", a, b)
				if !e.Sleep(e.Jitter(250 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name: "clock_skew_partition",
		Info: "NTP-style clock-skew re-draws on random servers while DC pairs partition and heal",
		Mix:  workload.ReadHeavy,
		Configure: func(cfg *paris.Config) {
			// Give every server a skew-wrapped clock so re-draws take hold.
			cfg.ClockSkew = 40 * time.Millisecond
		},
		Script: func(e *Env) {
			const maxSkew = 40 * time.Millisecond
			for {
				node := e.RandServer()
				skew := time.Duration(e.Rng.Int63n(int64(2*maxSkew))) - maxSkew
				a, b := e.RandDCPair()
				e.Cluster.SetClockSkew(node, skew)
				e.Cluster.Net().SetPartitioned(a, b, true)
				e.Logf("skew %v -> %v + partition DC%d|DC%d", node, skew, a, b)
				if !e.Sleep(e.Jitter(100 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetPartitioned(a, b, false)
				e.Logf("heal DC%d|DC%d", a, b)
				if !e.Sleep(e.Jitter(50 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name:         "migration_storm",
		Info:         "sessions migrating across DCs every few transactions while partitions flap and a node blackholes",
		Mix:          workload.HotSpot,
		MigrateEvery: 3,
		Script: func(e *Env) {
			for {
				a, b := e.RandDCPair()
				node := e.RandServer()
				e.Cluster.Net().SetPartitioned(a, b, true)
				e.Cluster.Net().SetNodeFault(node, transport.FaultBlackhole)
				e.Logf("partition DC%d|DC%d + blackhole %v", a, b, node)
				if !e.Sleep(e.Jitter(80 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetPartitioned(a, b, false)
				e.Cluster.Net().SetNodeFault(node, transport.FaultNone)
				e.Logf("heal DC%d|DC%d + %v", a, b, node)
				if !e.Sleep(e.Jitter(40 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name: "flapping_links_large_values",
		Info: "kilobyte-value replication through rapidly flapping link errors and short DC isolations",
		Mix:  workload.LargeValues,
		Script: func(e *Env) {
			numDCs := e.Topo.NumDCs()
			for {
				x, y := e.RandServer(), e.RandServer()
				for y == x {
					y = e.RandServer()
				}
				dc := paris.DCID(e.Rng.Intn(numDCs))
				e.Cluster.Net().SetLinkFault(x, y, transport.FaultError)
				e.Cluster.Net().SetLinkFault(y, x, transport.FaultError)
				e.Cluster.Net().IsolateDC(dc, true, numDCs)
				e.Logf("flap %v<->%v + isolate DC%d", x, y, dc)
				if !e.Sleep(e.Jitter(60 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetLinkFault(x, y, transport.FaultNone)
				e.Cluster.Net().SetLinkFault(y, x, transport.FaultNone)
				e.Cluster.Net().IsolateDC(dc, false, numDCs)
				e.Logf("heal %v<->%v + DC%d", x, y, dc)
				if !e.Sleep(e.Jitter(30 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name: "flapping_links_delta_gossip",
		Info: "directed link errors flapping across the stabilization tree with short DC isolations; the round-driven plane must go quiet while idle yet still converge the UST after healing",
		Mix:  workload.Variable,
		// The drain can only pass if a plane that has gone quiet — one push
		// per 32 rounds — returns to one per round when the probe write lands.
		Script: func(e *Env) {
			numDCs := e.Topo.NumDCs()
			for {
				// Two directed faults plus a short DC isolation: gossip
				// pushes (GSTUp/GSTRoot/USTDown) vanish on random tree edges
				// and the nodes above them fall back to deadline pushes, so
				// recovery must come from the next round's pushes and
				// piggybacked ReplicateBatch/ReplStatus stabilization, not
				// from a lucky lossless push.
				x, y := e.RandServer(), e.RandServer()
				for y == x {
					y = e.RandServer()
				}
				dc := paris.DCID(e.Rng.Intn(numDCs))
				e.Cluster.Net().SetLinkFault(x, y, transport.FaultError)
				e.Cluster.Net().SetLinkFault(y, x, transport.FaultError)
				e.Cluster.Net().IsolateDC(dc, true, numDCs)
				e.Logf("flap %v<->%v + isolate DC%d", x, y, dc)
				if !e.Sleep(e.Jitter(50 * time.Millisecond)) {
					return
				}
				e.Cluster.Net().SetLinkFault(x, y, transport.FaultNone)
				e.Cluster.Net().SetLinkFault(y, x, transport.FaultNone)
				e.Cluster.Net().IsolateDC(dc, false, numDCs)
				e.Logf("heal %v<->%v + DC%d", x, y, dc)
				if !e.Sleep(e.Jitter(40 * time.Millisecond)) {
					return
				}
			}
		},
	},
	{
		Name: "slow_link_degradation",
		Info: "a bandwidth-constrained WAN link under a byte-budgeted replication plane: senders coalesce, degrade, shed, and repair after healing",
		Mix:  workload.LargeValues,
		Configure: func(cfg *paris.Config) {
			// A budget far below the LargeValues write volume: every
			// destination's pump saturates, queues coalesce up to the high
			// water, and degraded (summary-only) mode engages.
			cfg.BandwidthBudget = SlowLinkBudget
			cfg.BatchMaxBytes = SlowLinkBatchMax
		},
		Script: func(e *Env) {
			net := e.Cluster.Net()
			// On exit, clear the WAN fault and raise every server's budget
			// so the queued backlog and the shed-window repairs drain fast:
			// the heal phase then has to prove convergence, while the
			// high-water bound observed during the fault phase stands.
			defer func() {
				net.ClearSlowLinks()
				e.Cluster.SetFlowBudget(8 << 20)
				e.Logf("cleared slow links, raised flow budget for drain")
			}()
			// One DC pair keeps a flapping, 10x-under-budget WAN pipe; the
			// pumps everywhere else still pace to the tiny budget.
			a, b := e.RandDCPair()
			slow := transport.FaultSlowLink{Rate: SlowLinkBudget / 10, Delay: 5 * time.Millisecond}
			for {
				setDCPairSlow(e, a, b, slow)
				e.Logf("slow link DC%d<->DC%d (%dB/s +%v)", a, b, slow.Rate, slow.Delay)
				if !e.Sleep(e.Jitter(150 * time.Millisecond)) {
					return
				}
				setDCPairSlow(e, a, b, transport.FaultSlowLink{})
				e.Logf("heal slow DC%d<->DC%d", a, b)
				if !e.Sleep(e.Jitter(50 * time.Millisecond)) {
					return
				}
			}
		},
	},
}

// Scenarios returns the named suite in declaration order.
func Scenarios() []Scenario { return append([]Scenario(nil), scenarios...) }

// Names returns every scenario name.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.Name
	}
	return out
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
