// Package paris_test hosts one testing.B benchmark per table and figure of
// the paper's evaluation (§V), plus ablations for the design choices called
// out in DESIGN.md. Each benchmark runs a closed-loop workload against an
// embedded cluster and reports domain metrics (tx/s, latency, blocking time,
// visibility) via b.ReportMetric, so `go test -bench=.` regenerates the
// numbers EXPERIMENTS.md records.
package paris_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/bench"
	"github.com/paris-kv/paris/internal/workload"
)

// benchCluster builds the paper's default deployment shape scaled for a
// single host; mode and sizing are per-benchmark.
func benchCluster(b *testing.B, cfg paris.Config) *paris.Cluster {
	b.Helper()
	c, err := paris.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c
}

func paperConfig(mode paris.Mode) paris.Config {
	cfg := paris.DefaultConfig() // 5 DCs, 45 partitions, RF 2
	cfg.Mode = mode
	cfg.LatencyScale = 0.02
	return cfg
}

// runLoadPoint executes one measured load point and reports tx/s and
// latency percentiles to the benchmark framework.
func runLoadPoint(b *testing.B, c *paris.Cluster, mix workload.Mix, threadsPerDC int) bench.Result {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.RunConfig{
			Cluster:      c,
			Mix:          mix,
			ThreadsPerDC: threadsPerDC,
			Duration:     500 * time.Millisecond,
			Warmup:       150 * time.Millisecond,
			Seed:         int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ThroughputTx, "tx/s")
	b.ReportMetric(float64(last.Latency.Mean().Microseconds())/1000, "avg-ms")
	b.ReportMetric(float64(last.Latency.Percentile(0.99).Microseconds())/1000, "p99-ms")
	return last
}

// --- Figure 1a: throughput vs latency, read-heavy (95:5) ---

func BenchmarkFig1aReadHeavyParis(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeNonBlocking))
	runLoadPoint(b, c, workload.ReadHeavy, 4)
}

func BenchmarkFig1aReadHeavyBPR(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeBlocking))
	runLoadPoint(b, c, workload.ReadHeavy, 4)
}

// --- Figure 1b: throughput vs latency, write-heavy (50:50) ---

func BenchmarkFig1bWriteHeavyParis(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeNonBlocking))
	runLoadPoint(b, c, workload.WriteHeavy, 4)
}

func BenchmarkFig1bWriteHeavyBPR(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeBlocking))
	runLoadPoint(b, c, workload.WriteHeavy, 4)
}

// --- §V-B: BPR read-phase blocking time ---

func BenchmarkBlockingTimeReadHeavy(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeBlocking))
	res := runLoadPoint(b, c, workload.ReadHeavy, 4)
	b.ReportMetric(float64(res.MeanBlockingTime().Microseconds())/1000, "block-ms")
}

func BenchmarkBlockingTimeWriteHeavy(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeBlocking))
	res := runLoadPoint(b, c, workload.WriteHeavy, 4)
	b.ReportMetric(float64(res.MeanBlockingTime().Microseconds())/1000, "block-ms")
}

// --- Figure 2a: scaling machines per DC (6, 12, 18) at 3 and 5 DCs ---

func BenchmarkFig2aScaleMachines(b *testing.B) {
	for _, dcs := range []int{3, 5} {
		for _, machines := range []int{6, 12, 18} {
			b.Run(fmt.Sprintf("dcs=%d/machines=%d", dcs, machines), func(b *testing.B) {
				cfg := paperConfig(paris.ModeNonBlocking)
				cfg.NumDCs = dcs
				cfg.NumPartitions = dcs * machines / cfg.ReplicationFactor
				c := benchCluster(b, cfg)
				runLoadPoint(b, c, workload.ReadHeavy, 4)
			})
		}
	}
}

// --- Figure 2b: scaling DCs (3, 5, 10) at 6 and 12 machines per DC ---

func BenchmarkFig2bScaleDCs(b *testing.B) {
	for _, machines := range []int{6, 12} {
		for _, dcs := range []int{3, 5, 10} {
			b.Run(fmt.Sprintf("machines=%d/dcs=%d", machines, dcs), func(b *testing.B) {
				cfg := paperConfig(paris.ModeNonBlocking)
				cfg.NumDCs = dcs
				cfg.NumPartitions = dcs * machines / cfg.ReplicationFactor
				c := benchCluster(b, cfg)
				runLoadPoint(b, c, workload.ReadHeavy, 4)
			})
		}
	}
}

// --- Figure 3: locality sweep (100:0, 95:5, 90:10, 50:50) ---

func BenchmarkFig3Locality(b *testing.B) {
	for _, local := range []float64{1.0, 0.95, 0.90, 0.50} {
		b.Run(fmt.Sprintf("local=%.0f%%", local*100), func(b *testing.B) {
			c := benchCluster(b, paperConfig(paris.ModeNonBlocking))
			runLoadPoint(b, c, workload.ReadHeavy.WithLocality(local), 4)
		})
	}
}

// --- Figure 4: update visibility latency CDF ---

func benchVisibility(b *testing.B, mode paris.Mode) {
	cfg := paperConfig(mode)
	cfg.VisibilitySample = 4
	c := benchCluster(b, cfg)
	var samples []time.Duration
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.RunConfig{
			Cluster:      c,
			Mix:          workload.ReadHeavy,
			ThreadsPerDC: 4,
			Duration:     500 * time.Millisecond,
			Warmup:       150 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		samples = res.Visibility
	}
	if len(samples) == 0 {
		b.Fatal("no visibility samples")
	}
	qs := bench.NewQuantiles(samples)
	b.ReportMetric(float64(qs.At(0.50).Microseconds())/1000, "vis-p50-ms")
	b.ReportMetric(float64(qs.At(0.90).Microseconds())/1000, "vis-p90-ms")
	b.ReportMetric(float64(qs.At(0.99).Microseconds())/1000, "vis-p99-ms")
}

func BenchmarkFig4VisibilityParis(b *testing.B) {
	benchVisibility(b, paris.ModeNonBlocking)
}

func BenchmarkFig4VisibilityBPR(b *testing.B) {
	benchVisibility(b, paris.ModeBlocking)
}

// --- Ablations (beyond the paper; see DESIGN.md §3) ---

// BenchmarkAblationStabilizationInterval sweeps ΔR, the round that paces
// replication and stabilization alike: shorter rounds buy fresher snapshots
// (lower visibility latency) at higher message cost.
func BenchmarkAblationStabilizationInterval(b *testing.B) {
	for _, interval := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(interval.String(), func(b *testing.B) {
			cfg := paperConfig(paris.ModeNonBlocking)
			cfg.ApplyInterval = interval
			cfg.VisibilitySample = 4
			c := benchCluster(b, cfg)
			msgs0 := c.Net().MessagesSent()
			res := runLoadPoint(b, c, workload.ReadHeavy, 4)
			if len(res.Visibility) > 0 {
				b.ReportMetric(float64(bench.PercentileOf(res.Visibility, 0.5).Microseconds())/1000, "vis-p50-ms")
			}
			b.ReportMetric(float64(c.Net().MessagesSent()-msgs0), "msgs")
		})
	}
}

// BenchmarkAblationReplicationFactor sweeps R: higher replication factors
// serve more reads locally but multiply update propagation.
func BenchmarkAblationReplicationFactor(b *testing.B) {
	for _, rf := range []int{2, 3} {
		b.Run(fmt.Sprintf("rf=%d", rf), func(b *testing.B) {
			cfg := paperConfig(paris.ModeNonBlocking)
			cfg.ReplicationFactor = rf
			c := benchCluster(b, cfg)
			runLoadPoint(b, c, workload.ReadHeavy, 4)
		})
	}
}

// BenchmarkAblationClockSkew sweeps NTP-style clock error: HLCs keep
// latency flat, while the stable snapshot's staleness absorbs the skew.
func BenchmarkAblationClockSkew(b *testing.B) {
	for _, skew := range []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(skew.String(), func(b *testing.B) {
			cfg := paperConfig(paris.ModeNonBlocking)
			cfg.ClockSkew = skew
			c := benchCluster(b, cfg)
			runLoadPoint(b, c, workload.ReadHeavy, 4)
		})
	}
}

// BenchmarkAblationMessageOverhead breaks the wire traffic down by message
// kind under load, quantifying the paper's meta-data efficiency claim: the
// stabilization protocol (GSTUp/GSTRoot/USTDown/heartbeats) runs at a
// constant rate set by the gossip intervals and deployment size —
// independent of transaction throughput — with single-timestamp payloads.
func BenchmarkAblationMessageOverhead(b *testing.B) {
	c := benchCluster(b, paperConfig(paris.ModeNonBlocking))
	before := c.Net().MessagesByKind()
	runLoadPoint(b, c, workload.ReadHeavy, 4)
	after := c.Net().MessagesByKind()
	var gossip, data float64
	for kind, n := range after {
		delta := float64(n - before[kind])
		switch kind.String() {
		case "GSTUp", "GSTRoot", "USTDown", "Heartbeat":
			gossip += delta
		default:
			data += delta
		}
	}
	b.ReportMetric(gossip, "gossip-msgs")
	b.ReportMetric(data, "data-msgs")
	if data > 0 {
		b.ReportMetric(100*gossip/(gossip+data), "gossip-%")
	}
}
