package nemesis

import (
	"testing"
	"time"

	"github.com/paris-kv/paris"
)

// runScenario executes one named scenario and fails the test on any checker
// violation or a cluster that cannot drain after healing. Each TestNemesis_*
// below pins one composed-fault schedule that once surfaced (or guards
// against) a failure-path bug; reproduce outside the test suite with
// `paris-bench -experiment nemesis -seed 7`.
func runScenario(t *testing.T, name string, mode paris.Mode) *Result {
	t.Helper()
	opts := Options{
		Scenario:   name,
		Seed:       7,
		Mode:       mode,
		FaultPhase: 1200 * time.Millisecond,
		Logf:       t.Logf,
	}
	if testing.Short() {
		opts.FaultPhase = 400 * time.Millisecond
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("%s", res)
	for i, v := range res.Violations {
		if i == 20 {
			t.Errorf("... %d further violations suppressed", len(res.Violations)-20)
			break
		}
		t.Errorf("violation: %s", v)
	}
	if !res.Drained {
		t.Errorf("cluster failed to drain after healing")
	}
	if res.Committed == 0 {
		t.Errorf("no transactions committed — the workload never made progress")
	}
	return res
}

func TestNemesis_PartitionBlackhole(t *testing.T) {
	runScenario(t, "partition_blackhole", paris.ModeNonBlocking)
}

func TestNemesis_AsymmetricLinks(t *testing.T) {
	runScenario(t, "asymmetric_links", paris.ModeNonBlocking)
}

func TestNemesis_CrashRestart(t *testing.T) {
	runScenario(t, "crash_restart", paris.ModeNonBlocking)
}

func TestNemesis_ClockSkewPartition(t *testing.T) {
	runScenario(t, "clock_skew_partition", paris.ModeNonBlocking)
}

func TestNemesis_MigrationStorm(t *testing.T) {
	runScenario(t, "migration_storm", paris.ModeNonBlocking)
}

func TestNemesis_FlappingLinksLargeValues(t *testing.T) {
	runScenario(t, "flapping_links_large_values", paris.ModeNonBlocking)
}

// TestNemesis_FlappingLinksDeltaGossip pins the stabilization plane under
// lossy tree edges: with deadline pushes standing in for lost inputs, the
// Active-bit idle rule and a long (64×ΔG) idle spacing, the run's drain — a
// probe write that must become universally stable — is exactly the
// UST-convergence assertion. The counters additionally prove the idle rule
// was engaged: pushes flowed AND idle pushes were withheld.
func TestNemesis_FlappingLinksDeltaGossip(t *testing.T) {
	res := runScenario(t, "flapping_links_delta_gossip", paris.ModeNonBlocking)
	if res.GossipSent == 0 {
		t.Errorf("no dedicated gossip pushes sent — stabilization plane never ran")
	}
	if res.GossipSuppressed == 0 {
		t.Errorf("no pushes withheld — the idle rule was not engaged, so this run did not exercise it")
	}
	t.Logf("gossip: sent=%d suppressed=%d", res.GossipSent, res.GossipSuppressed)
}

// TestNemesis_SlowLinkDegradation pins the flow-control scenario: a
// bandwidth-constrained WAN link under a byte-budgeted replication plane.
// Beyond the usual drain + zero-violation bar it asserts the flow-control
// guarantees end to end: at least one destination entered degraded
// (summary-only) mode, the per-destination send-queue byte bound held on
// every server for the whole run, rounds were coalesced and shed under
// pressure, and every degraded destination converged after healing — the
// drain's universally-stable probe cannot pass while any receiver's version
// vector is still frozen on an unrepaired shed window.
func TestNemesis_SlowLinkDegradation(t *testing.T) {
	res := runScenario(t, "slow_link_degradation", paris.ModeNonBlocking)
	if res.FlowDegradedEntries == 0 {
		t.Errorf("no destination ever degraded — the budget never saturated")
	}
	if res.FlowDegradedExits == 0 {
		t.Errorf("no degraded destination resumed after healing")
	}
	if res.FlowShedRounds == 0 {
		t.Errorf("no rounds shed — degraded mode never engaged its summary path")
	}
	if res.FlowCoalesced == 0 {
		t.Errorf("no rounds coalesced under pressure")
	}
	if res.FlowMaxQueuedBytes > SlowLinkHighWater {
		t.Errorf("sender queue reached %d bytes, above the %d high-water bound",
			res.FlowMaxQueuedBytes, SlowLinkHighWater)
	}
	if res.FlowMaxQueuedBytes == 0 {
		t.Errorf("no bytes ever queued — flow control was not active")
	}
	// Shed windows are caught up by the chunked repair path; every served
	// frame must respect the scenario's byte budget up to one unsplittable
	// same-commit-timestamp group (LargeValues: 10 writes of ≤8KiB values,
	// plus per-write key/header overhead).
	if res.RepairChunksServed == 0 {
		t.Errorf("no repair chunks served — shed windows were never repaired through the chunked path")
	}
	maxGroup := uint64(10 * (1024 + 7168 + 64))
	if res.RepairChunkMaxBytes > SlowLinkBatchMax+maxGroup {
		t.Errorf("repair chunk reached %dB, above the %dB budget + %dB one-group slack",
			res.RepairChunkMaxBytes, uint64(SlowLinkBatchMax), maxGroup)
	}
	t.Logf("flow: maxQueued=%dB degraded=%d/%d shed=%d coalesced=%d throttled=%v repairChunks=%d max=%dB",
		res.FlowMaxQueuedBytes, res.FlowDegradedEntries, res.FlowDegradedExits,
		res.FlowShedRounds, res.FlowCoalesced, res.FlowThrottledFor,
		res.RepairChunksServed, res.RepairChunkMaxBytes)
}

// TestNemesis_CrashRestartBPR runs the crash/restart composition against the
// blocking baseline: BPR's fresher snapshots make lost-commit recovery the
// sharpest read-your-writes hazard.
func TestNemesis_CrashRestartBPR(t *testing.T) {
	runScenario(t, "crash_restart", paris.ModeBlocking)
}

// TestNemesis_MigrationStormBPR exercises session handoff without the client
// cache: in BPR mode read-your-writes rides entirely on the carried ust.
func TestNemesis_MigrationStormBPR(t *testing.T) {
	runScenario(t, "migration_storm", paris.ModeBlocking)
}

func TestScenarioTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Scenarios() {
		if s.Name == "" || s.Info == "" || s.Script == nil {
			t.Errorf("scenario %+v missing name, info, or script", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if _, ok := Lookup(s.Name); !ok {
			t.Errorf("Lookup(%q) failed", s.Name)
		}
	}
	if len(Scenarios()) < 6 {
		t.Errorf("want at least 6 scenarios, have %d", len(Scenarios()))
	}
}
