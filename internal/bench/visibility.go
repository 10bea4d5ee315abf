package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/transport"
	"github.com/paris-kv/paris/internal/wire"
)

// The visibility experiment measures what the stabilization plane delivers
// and what it costs:
//
//   - commit→universally-stable latency (the window in which a committed
//     write exists but no UST snapshot exposes it) under load, on memnet and
//     on a loopback-TCP deployment;
//   - where that latency goes: for sampled commits, the time from the commit
//     to its local apply, to the peer replica's version-vector advance, to
//     the last DC aggregate at a root, to the UST at the last root, to the
//     UST at the last server (attribution);
//   - dedicated stabilization traffic (GSTUp/GSTRoot/USTDown envelopes) on
//     an idle cluster, where the idle rule should collapse the rate to one
//     push per GossipIdleMax and edge, and under load, where every edge
//     carries one message per round;
//   - the largest single ReplSyncResp frame served during a flow-controlled
//     catch-up, against the configured chunk budget;
//   - memnet closed-loop scaling (1 thread vs SaturationThreads per DC).

// VisSummary is the percentile view of one arm's visibility samples.
type VisSummary struct {
	Samples       int
	P50, P95, P99 time.Duration
	// MultiRound is the share of samples visible only after more than one
	// round (ΔR): a commit waits half a round for the next one on average and
	// then only for hops, so this share is where rounds lost to the plane
	// show up as a number rather than as noise in the percentiles.
	MultiRound float64
}

// summarizeVis sorts samples and summarizes them against the arm's round.
func summarizeVis(samples []time.Duration, round time.Duration) VisSummary {
	if len(samples) == 0 {
		return VisSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	within := sort.Search(len(samples), func(i int) bool { return samples[i] > round })
	return VisSummary{Samples: len(samples), P50: at(0.50), P95: at(0.95), P99: at(0.99),
		MultiRound: float64(len(samples)-within) / float64(len(samples))}
}

// VisAttribution splits commit→universally-visible into the stages a commit
// passes on its way: each field is the median time from the commit's return
// to the moment the stage was reached, so differences between neighbours are
// the stages' own shares.
type VisAttribution struct {
	Samples int
	// LocalApply: the origin replica's own version-vector entry covers the
	// commit (the apply round that follows it has run).
	LocalApply time.Duration
	// PeerVV: the peer replica's entry for the origin DC covers it (the
	// round's ReplicateBatch has arrived).
	PeerVV time.Duration
	// DCRoot: every DC root's aggregate of its own DC covers it (the GSTUp
	// hops).
	DCRoot time.Duration
	// RootUST: every root's UST covers it (root exchange and UST
	// computation).
	RootUST time.Duration
	// LastLeaf: every server's UST covers it (the USTDown hops).
	LastLeaf time.Duration
}

// attributionBefore is the same attribution measured at the parent of the PR
// that aligned the rounds (commit b1248b3: unsynchronized ΔR, ΔG and ΔU timers
// of 5 ms each; same cluster, same sampler, the median of three passes of 200
// commits), in microseconds — the "before" column of the README's table.
var attributionBefore = map[string]float64{
	"attr_before_local_apply_p50_us": 2361,
	"attr_before_peer_vv_p50_us":     2369,
	"attr_before_dc_root_p50_us":     14228,
	"attr_before_root_ust_p50_us":    18850,
	"attr_before_last_leaf_p50_us":   19134,
}

// VisibilityComparison is the outcome of the visibility experiment.
type VisibilityComparison struct {
	// Delta is the loaded memnet arm, TCP the loopback-TCP arm.
	Delta, TCP Result

	VisDelta, VisTCP VisSummary

	// Attribution is measured on the memnet cluster after the loaded pass,
	// one commit at a time.
	Attribution VisAttribution

	// Dedicated stabilization envelopes per second, summed over the cluster.
	LoadedGossipDelta float64
	IdleGossipDelta   float64

	// RepairChunkMax is the largest single ReplSyncResp frame served during
	// the flow-controlled catch-up probe; RepairChunkBudget is the
	// configured per-chunk byte budget it is expected to respect (up to one
	// same-timestamp item group of slack). RepairChunks counts frames.
	RepairChunkMax, RepairChunkBudget uint64
	RepairChunks                      uint64

	// Scaling1/ScalingN are memnet throughput at 1 and SaturationThreads
	// threads per DC; ScalingRatio is their quotient.
	Scaling1, ScalingN float64
	ScalingRatio       float64
}

// visibilityCluster is the memnet deployment the stabilization arms run on:
// small and zero-latency, so the visibility numbers isolate the
// stabilization cadence rather than simulated geography.
func visibilityCluster(o Options) (*paris.Cluster, error) {
	cfg := paris.DefaultConfig()
	cfg.NumDCs = 3
	cfg.NumPartitions = 6
	cfg.ReplicationFactor = 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = 5 * time.Millisecond
	cfg.GossipInterval = 5 * time.Millisecond
	cfg.USTInterval = 5 * time.Millisecond
	cfg.VisibilitySample = 4
	cfg.BatchMaxBytes = o.BatchMaxBytes
	return paris.NewCluster(cfg)
}

// gossipEnvelopes sums the dedicated stabilization-plane envelope count.
func gossipEnvelopes(c *paris.Cluster) uint64 {
	byKind := c.Net().MessagesByKind()
	return byKind[wire.KindGSTUp] + byKind[wire.KindGSTRoot] + byKind[wire.KindUSTDown]
}

// Visibility runs the experiment.
func Visibility(o Options) (VisibilityComparison, error) {
	o = o.withDefaults()
	var cmp VisibilityComparison

	o.printf("visibility: memnet arm\n")
	if err := cmp.memnetArm(o); err != nil {
		return cmp, err
	}

	o.printf("visibility: loopback TCP arm\n")
	var err error
	cmp.TCP, err = runTCPLoad(o, 2, 4)
	if err != nil {
		return cmp, err
	}
	cmp.VisTCP = summarizeVis(cmp.TCP.Visibility, tcpApplyInterval)

	o.printf("visibility: flow-controlled repair-chunk probe\n")
	if err := cmp.repairProbe(o); err != nil {
		return cmp, err
	}

	o.printf("visibility: memnet scaling (1 vs %d threads/DC)\n", o.SaturationThreads)
	for _, threads := range []int{1, o.SaturationThreads} {
		cluster, err := hotpathCluster(o)
		if err != nil {
			return cmp, err
		}
		res, err := Run(RunConfig{
			Cluster:      cluster,
			Mix:          hotMix,
			ThreadsPerDC: threads,
			Duration:     o.Duration,
			Warmup:       o.Warmup,
		})
		cluster.Close()
		if err != nil {
			return cmp, err
		}
		if threads == 1 {
			cmp.Scaling1 = res.ThroughputTx
		} else {
			cmp.ScalingN = res.ThroughputTx
		}
	}
	if cmp.Scaling1 > 0 {
		cmp.ScalingRatio = cmp.ScalingN / cmp.Scaling1
	}
	return cmp, nil
}

// memnetArm runs the loaded pass, the attribution and the idle pass on one
// memnet cluster. The idle window starts after a settle period long enough
// for the Active-bit cascade to drain (tree depth × activity window) and every
// node to fall back to one push per GossipIdleMax.
func (cmp *VisibilityComparison) memnetArm(o Options) error {
	const idleSettle = time.Second
	cluster, err := visibilityCluster(o)
	if err != nil {
		return err
	}
	defer cluster.Close()

	g0 := gossipEnvelopes(cluster)
	t0 := time.Now()
	cmp.Delta, err = Run(RunConfig{
		Cluster:      cluster,
		Mix:          hotMix,
		ThreadsPerDC: 2,
		Duration:     o.Duration,
		Warmup:       o.Warmup,
	})
	if err != nil {
		return err
	}
	cmp.LoadedGossipDelta = float64(gossipEnvelopes(cluster)-g0) / time.Since(t0).Seconds()
	cmp.VisDelta = summarizeVis(cmp.Delta.Visibility, cluster.Config().ApplyInterval)

	o.printf("visibility: attribution of %d sampled commits\n", attributionSamples)
	if cmp.Attribution, err = attributeVisibility(cluster, attributionSamples); err != nil {
		return err
	}

	time.Sleep(idleSettle)
	g1 := gossipEnvelopes(cluster)
	t1 := time.Now()
	time.Sleep(o.Duration)
	cmp.IdleGossipDelta = float64(gossipEnvelopes(cluster)-g1) / time.Since(t1).Seconds()
	return nil
}

// attributionSamples is how many commits the attribution pass follows.
const attributionSamples = 200

// attributeVisibility commits n writes one at a time through a session whose
// coordinator replicates the key's partition, and follows each through the
// stabilization plane by polling the servers' introspection accessors — no
// instrumentation inside the protocol. The poller spins rather than sleeps or
// yields: a sleep is a millisecond or more on a virtual machine, and a yield
// returns only once the whole cascade has run, which is the very thing being
// taken apart. It costs the cluster one core for a few milliseconds a sample.
func attributeVisibility(cluster *paris.Cluster, n int) (VisAttribution, error) {
	topo := cluster.Topology()
	const originDC = paris.DCID(0)
	p := topo.PartitionsAt(originDC)[0]
	origin := cluster.Server(originDC, int(p))
	peer := cluster.Server(topo.PeerReplicas(p, originDC)[0].DC, int(p))
	var roots []*server.Server
	for _, dc := range topo.AllDCs() {
		if local := topo.PartitionsAt(dc); len(local) > 0 {
			roots = append(roots, cluster.Server(dc, int(local[0])))
		}
	}
	servers := cluster.Servers()
	sess, err := cluster.NewSessionAt(originDC, int(p))
	if err != nil {
		return VisAttribution{}, err
	}
	defer sess.Close()
	key := keysOnPartition(topo, p, 1)[0]

	all := func(ss []*server.Server, reached func(*server.Server) bool) bool {
		for _, s := range ss {
			if !reached(s) {
				return false
			}
		}
		return true
	}
	var ct paris.Timestamp
	stages := []func() bool{
		func() bool { return origin.VersionVector()[originDC] >= ct },
		func() bool { return peer.VersionVector()[originDC] >= ct },
		func() bool {
			return all(roots, func(s *server.Server) bool { low, _, _ := s.DCAggregate(); return low >= ct })
		},
		func() bool { return all(roots, func(s *server.Server) bool { return s.UST() >= ct }) },
		func() bool { return all(servers, func(s *server.Server) bool { return s.UST() >= ct }) },
	}
	reached := make([][]time.Duration, len(stages))
	rng := rand.New(rand.NewSource(1))
	interval := cluster.Config().ApplyInterval
	for i := 0; i < n; i++ {
		time.Sleep(time.Duration(rng.Int63n(int64(interval)))) // any phase of the round
		if ct, err = sess.Put(context.Background(), map[string][]byte{key: []byte("v")}); err != nil {
			return VisAttribution{}, err
		}
		start := time.Now()
		for stage := 0; stage < len(stages); {
			switch {
			case stages[stage]():
				reached[stage] = append(reached[stage], time.Since(start))
				stage++
			case time.Since(start) > 5*time.Second:
				return VisAttribution{}, fmt.Errorf("commit %v stuck before stage %d of the stabilization plane", ct, stage)
			}
		}
	}
	median := func(d []time.Duration) time.Duration { return summarizeVis(d, interval).P50 }
	return VisAttribution{
		Samples:    n,
		LocalApply: median(reached[0]),
		PeerVV:     median(reached[1]),
		DCRoot:     median(reached[2]),
		RootUST:    median(reached[3]),
		LastLeaf:   median(reached[4]),
	}, nil
}

// repairProbe starves the replication plane behind a tiny bandwidth budget
// until destinations shed rounds, then lets the cluster catch up and records
// the largest single repair frame the flow pumps served.
func (cmp *VisibilityComparison) repairProbe(o Options) error {
	const chunkBudget = 2 << 10
	cfg := paris.DefaultConfig()
	cfg.NumDCs = 3
	cfg.NumPartitions = 3
	cfg.ReplicationFactor = 2
	cfg.Latency = transport.ZeroLatency{}
	cfg.ApplyInterval = 2 * time.Millisecond
	cfg.GossipInterval = 2 * time.Millisecond
	cfg.USTInterval = 2 * time.Millisecond
	cfg.BatchMaxBytes = chunkBudget
	cfg.BandwidthBudget = 16 << 10 // starved: a write burst outruns this
	cluster, err := paris.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()

	sess, err := cluster.NewSession(0)
	if err != nil {
		return err
	}
	defer sess.Close()
	// Burst enough value bytes to shed rounds, then wait for the cluster to
	// catch back up: the degraded destinations summarize, receivers
	// pre-request, and the store-backed repair flows in budget-sized chunks.
	last, err := burstWrites(sess, 512, 256)
	if err != nil {
		return err
	}
	cluster.WaitForUST(last, 10*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		cmp.RepairChunks, cmp.RepairChunkMax = 0, 0
		for _, srv := range cluster.Servers() {
			m := srv.Metrics()
			cmp.RepairChunks += m.RepairChunksServed
			if m.RepairChunkMaxBytes > cmp.RepairChunkMax {
				cmp.RepairChunkMax = m.RepairChunkMaxBytes
			}
		}
		if cmp.RepairChunks > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmp.RepairChunkBudget = chunkBudget
	return nil
}

// burstWrites commits n single-write transactions of valSize-byte values as
// fast as the coordinator accepts them, returning the last commit timestamp.
func burstWrites(sess *paris.Session, n, valSize int) (paris.Timestamp, error) {
	ctx := context.Background()
	val := make([]byte, valSize)
	var last paris.Timestamp
	for i := 0; i < n; i++ {
		ct, err := sess.Put(ctx, map[string][]byte{fmt.Sprintf("burst-%d", i): val})
		if err != nil {
			return last, err
		}
		last = ct
	}
	return last, nil
}

// Report renders the comparison.
func (cmp VisibilityComparison) Report(name string) *Report {
	rep := &Report{
		Name: name,
		Desc: "commit→universally-stable latency and the share of commits it took more than one round, " +
			"its attribution to the stages of the stabilization plane " +
			"(attr_before_*: the same stages with unsynchronized timers) and the plane's cost, repair chunking, memnet scaling",
		Rows: []ReportRow{
			RowFromResult("memnet-delta", cmp.Delta),
			RowFromResult("tcp-delta", cmp.TCP),
		},
		Summary: map[string]float64{
			"vis_p50_us":     float64(cmp.VisDelta.P50.Microseconds()),
			"vis_p95_us":     float64(cmp.VisDelta.P95.Microseconds()),
			"vis_p99_us":     float64(cmp.VisDelta.P99.Microseconds()),
			"vis_samples":    float64(cmp.VisDelta.Samples),
			"vis_tcp_p50_us": float64(cmp.VisTCP.P50.Microseconds()),
			"vis_tcp_p95_us": float64(cmp.VisTCP.P95.Microseconds()),
			"vis_tcp_p99_us": float64(cmp.VisTCP.P99.Microseconds()),

			"vis_multi_round_share":     cmp.VisDelta.MultiRound,
			"vis_tcp_multi_round_share": cmp.VisTCP.MultiRound,

			"attr_samples":            float64(cmp.Attribution.Samples),
			"attr_local_apply_p50_us": float64(cmp.Attribution.LocalApply.Microseconds()),
			"attr_peer_vv_p50_us":     float64(cmp.Attribution.PeerVV.Microseconds()),
			"attr_dc_root_p50_us":     float64(cmp.Attribution.DCRoot.Microseconds()),
			"attr_root_ust_p50_us":    float64(cmp.Attribution.RootUST.Microseconds()),
			"attr_last_leaf_p50_us":   float64(cmp.Attribution.LastLeaf.Microseconds()),

			"gossip_loaded_msgs_per_sec_delta": cmp.LoadedGossipDelta,
			"gossip_idle_msgs_per_sec_delta":   cmp.IdleGossipDelta,

			"repair_chunks_served":      float64(cmp.RepairChunks),
			"repair_chunk_max_bytes":    float64(cmp.RepairChunkMax),
			"repair_chunk_budget_bytes": float64(cmp.RepairChunkBudget),

			"scaling_memnet_tx_per_sec_1": cmp.Scaling1,
			"scaling_memnet_tx_per_sec_n": cmp.ScalingN,
			"scaling_memnet":              cmp.ScalingRatio,
		},
	}
	for k, v := range attributionBefore {
		rep.Summary[k] = v
	}
	return rep
}
