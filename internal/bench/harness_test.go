package bench

import (
	"testing"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/racedetect"
	"github.com/paris-kv/paris/internal/workload"
)

func quickCluster(t *testing.T, mode paris.Mode, visSample int) *paris.Cluster {
	t.Helper()
	cfg := paris.Config{
		NumDCs:            3,
		NumPartitions:     9,
		ReplicationFactor: 2,
		Mode:              mode,
		LatencyScale:      0.02,
		VisibilitySample:  visSample,
	}
	c, err := paris.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRunProducesThroughput(t *testing.T) {
	c := quickCluster(t, paris.ModeNonBlocking, 0)
	res, err := Run(RunConfig{
		Cluster:      c,
		Mix:          workload.ReadHeavy,
		ThreadsPerDC: 2,
		Duration:     400 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.ThroughputTx <= 0 {
		t.Fatalf("no progress: %+v", res)
	}
	if res.Latency.Count() != res.Committed {
		t.Fatalf("histogram count %d != committed %d", res.Latency.Count(), res.Committed)
	}
	if res.Latency.Mean() <= 0 {
		t.Fatal("zero mean latency")
	}
	t.Logf("paris: %v", res)
}

func TestRunBPRBlocksReads(t *testing.T) {
	c := quickCluster(t, paris.ModeBlocking, 0)
	res, err := Run(RunConfig{
		Cluster:      c,
		Mix:          workload.WriteHeavy,
		ThreadsPerDC: 2,
		Duration:     400 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no progress in BPR mode")
	}
	if res.BlockedReads == 0 {
		t.Fatal("BPR run recorded no blocked reads")
	}
	if res.MeanBlockingTime() <= 0 {
		t.Fatal("BPR blocking time not measured")
	}
	t.Logf("bpr: %v mean-block=%v", res, res.MeanBlockingTime())
}

func TestParisLatencyBeatsBPR(t *testing.T) {
	// The paper's headline (Fig. 1): non-blocking reads give PaRiS lower
	// latency than BPR at equal offered load.
	run := func(mode paris.Mode) Result {
		c := quickCluster(t, mode, 0)
		res, err := Run(RunConfig{
			Cluster:      c,
			Mix:          workload.ReadHeavy,
			ThreadsPerDC: 2,
			Duration:     600 * time.Millisecond,
			Warmup:       200 * time.Millisecond,
			Seed:         7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p := run(paris.ModeNonBlocking)
	b := run(paris.ModeBlocking)
	t.Logf("paris %v", p)
	t.Logf("bpr   %v", b)
	if !racedetect.Enabled && p.Latency.Mean() >= b.Latency.Mean() {
		t.Fatalf("PaRiS latency %v not lower than BPR %v", p.Latency.Mean(), b.Latency.Mean())
	}
}

func TestVisibilityCollected(t *testing.T) {
	c := quickCluster(t, paris.ModeNonBlocking, 2)
	res, err := Run(RunConfig{
		Cluster:      c,
		Mix:          workload.WriteHeavy,
		ThreadsPerDC: 2,
		Duration:     500 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visibility) == 0 {
		t.Fatal("no visibility samples collected")
	}
	cdf := DurationsCDF(res.Visibility)
	if len(cdf) == 0 || cdf[len(cdf)-1].Fraction != 1 {
		t.Fatalf("bad CDF: %v", cdf)
	}
}

func TestSweepAndPeak(t *testing.T) {
	c := quickCluster(t, paris.ModeNonBlocking, 0)
	results, err := Sweep(RunConfig{
		Cluster:  c,
		Mix:      workload.ReadHeavy,
		Duration: 250 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
	}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("sweep returned %d results", len(results))
	}
	peak := PeakThroughput(results)
	if peak.ThroughputTx < results[0].ThroughputTx || peak.ThroughputTx < results[1].ThroughputTx {
		t.Fatal("PeakThroughput did not pick the max")
	}
}
