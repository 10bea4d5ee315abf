package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/topology"
	"github.com/paris-kv/paris/internal/workload"
)

// RunConfig describes one load point: a cluster, a workload mix, and a
// number of closed-loop client threads per DC. The paper runs one client
// process per partition per DC and varies threads per process; here the
// product is what matters, so the harness takes threads per DC directly.
type RunConfig struct {
	Cluster *paris.Cluster
	Mix     workload.Mix
	// ThreadsPerDC is the number of concurrent closed-loop sessions per DC.
	ThreadsPerDC int
	// Duration is the measured interval; Warmup precedes it unmeasured.
	Duration time.Duration
	Warmup   time.Duration
	// KeysPerPartition sizes the dataset (default 100).
	KeysPerPartition int
	// Seed makes workloads reproducible across runs and modes.
	Seed int64
}

// Result is the outcome of one load point.
type Result struct {
	Mode         paris.Mode
	Mix          workload.Mix
	Threads      int // total threads across DCs
	Elapsed      time.Duration
	Committed    uint64
	ThroughputTx float64 // committed transactions per second
	Latency      *Histogram
	// BlockedReads aggregates the servers' BPR counters; BlockedTotal is
	// the cumulative blocking time (§V-B "blocking time").
	BlockedReads uint64
	BlockedTotal time.Duration
	// Visibility holds sampled update-visibility latencies when the cluster
	// was built with VisibilitySample > 0.
	Visibility []time.Duration
}

// MeanBlockingTime is the average wait of a blocked BPR read.
func (r Result) MeanBlockingTime() time.Duration {
	if r.BlockedReads == 0 {
		return 0
	}
	return r.BlockedTotal / time.Duration(r.BlockedReads)
}

// String renders a result as one table row.
func (r Result) String() string {
	return fmt.Sprintf("%-6s threads=%-4d tx/s=%9.0f  avg=%8v p95=%8v p99=%8v",
		r.Mode, r.Threads, r.ThroughputTx,
		r.Latency.Mean().Round(10*time.Microsecond),
		r.Latency.Percentile(0.95).Round(10*time.Microsecond),
		r.Latency.Percentile(0.99).Round(10*time.Microsecond))
}

// Run executes one closed-loop load point against the cluster.
func Run(cfg RunConfig) (Result, error) {
	if cfg.ThreadsPerDC <= 0 {
		cfg.ThreadsPerDC = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.KeysPerPartition <= 0 {
		cfg.KeysPerPartition = 100
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	topo := cfg.Cluster.Topology()
	ks := workload.NewKeyspace(topo, cfg.KeysPerPartition)

	// Baseline BPR counters so the result reports only this run's blocking.
	blocked0, btotal0 := blockingCounters(cfg.Cluster)
	drainVisibility(cfg.Cluster) // discard pre-run samples

	type workerOut struct {
		hist      *Histogram
		committed uint64
		err       error
	}
	numDCs := topo.NumDCs()
	workers := numDCs * cfg.ThreadsPerDC
	outs := make([]workerOut, workers)

	var (
		startGate = make(chan struct{}) // released when measurement begins
		stopFlag  = make(chan struct{})
		wg        sync.WaitGroup
	)
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dc := topology.DCID(w % numDCs)
			sess, err := cfg.Cluster.NewSession(dc)
			if err != nil {
				outs[w].err = err
				return
			}
			defer sess.Close()
			gen := workload.NewGenerator(cfg.Mix, topo, ks, dc, cfg.Seed+int64(w)*7919)
			hist := NewHistogram()
			outs[w].hist = hist

			measuring := false
			for {
				select {
				case <-stopFlag:
					return
				default:
				}
				if !measuring {
					select {
					case <-startGate:
						measuring = true
					default:
					}
				}
				plan := gen.Next()
				t0 := time.Now()
				err := runTx(ctx, sess, plan)
				if err != nil {
					outs[w].err = err
					return
				}
				if measuring {
					hist.Record(time.Since(t0))
					outs[w].committed++
				}
			}
		}(w)
	}

	time.Sleep(cfg.Warmup)
	close(startGate)
	measureStart := time.Now()
	time.Sleep(cfg.Duration)
	elapsed := time.Since(measureStart)
	close(stopFlag)
	wg.Wait()

	res := Result{
		Mode:    cfg.Cluster.Config().Mode,
		Mix:     cfg.Mix,
		Threads: workers,
		Elapsed: elapsed,
		Latency: NewHistogram(),
	}
	for _, o := range outs {
		if o.err != nil {
			return res, o.err
		}
		res.Committed += o.committed
		res.Latency.Merge(o.hist)
	}
	res.ThroughputTx = float64(res.Committed) / elapsed.Seconds()
	blocked1, btotal1 := blockingCounters(cfg.Cluster)
	res.BlockedReads = blocked1 - blocked0
	res.BlockedTotal = btotal1 - btotal0
	res.Visibility = drainVisibility(cfg.Cluster)
	return res, nil
}

// runTx executes one plan as the paper does: all reads in one parallel
// round, then all writes, then commit.
func runTx(ctx context.Context, sess *paris.Session, plan workload.TxPlan) error {
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	if len(plan.ReadKeys) > 0 {
		if _, err := tx.Read(ctx, plan.ReadKeys...); err != nil {
			tx.Abandon()
			return err
		}
	}
	for _, kv := range plan.Writes {
		if err := tx.Write(kv.Key, kv.Value); err != nil {
			tx.Abandon()
			return err
		}
	}
	_, err = tx.Commit(ctx)
	return err
}

func blockingCounters(c *paris.Cluster) (blocked uint64, total time.Duration) {
	for _, srv := range c.Servers() {
		m := srv.Metrics()
		blocked += m.ReadsBlocked
		total += m.BlockedTotal
	}
	return blocked, total
}

func drainVisibility(c *paris.Cluster) []time.Duration {
	var out []time.Duration
	for _, srv := range c.Servers() {
		out = append(out, srv.VisibilityLatencies()...)
	}
	return out
}

// Sweep runs one load point per thread count and returns the curve.
func Sweep(base RunConfig, threadsPerDC []int) ([]Result, error) {
	results := make([]Result, 0, len(threadsPerDC))
	for _, n := range threadsPerDC {
		cfg := base
		cfg.ThreadsPerDC = n
		r, err := Run(cfg)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// PeakThroughput returns the result with the highest throughput.
func PeakThroughput(results []Result) Result {
	best := results[0]
	for _, r := range results[1:] {
		if r.ThroughputTx > best.ThroughputTx {
			best = r
		}
	}
	return best
}
