package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/workload"
)

// Options tunes the experiment runners. Zero values select defaults sized
// for a single host: shapes (who wins, by what factor, where crossovers sit)
// are meaningful; absolute numbers are not AWS numbers.
type Options struct {
	// LatencyScale scales the AWS geography (default 0.05 = 5%).
	LatencyScale float64
	// Duration and Warmup control each load point.
	Duration time.Duration
	Warmup   time.Duration
	// Threads is the per-DC closed-loop thread sweep.
	Threads []int
	// SaturationThreads is the per-DC thread count used by single-point
	// experiments (scalability, locality).
	SaturationThreads int
	// KeysPerPartition sizes the dataset.
	KeysPerPartition int
	// Out receives human-readable tables (nil discards them).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.LatencyScale <= 0 {
		o.LatencyScale = 0.05
	}
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 16}
	}
	if o.SaturationThreads <= 0 {
		o.SaturationThreads = 8
	}
	if o.KeysPerPartition <= 0 {
		o.KeysPerPartition = 100
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

func (o Options) printf(format string, args ...interface{}) {
	fmt.Fprintf(o.Out, format, args...)
}

// paperCluster builds the paper's default deployment (§V-A) in the given
// mode: 5 DCs, 45 partitions, RF 2.
func paperCluster(o Options, mode paris.Mode, visSample int) (*paris.Cluster, error) {
	cfg := paris.DefaultConfig()
	cfg.Mode = mode
	cfg.LatencyScale = o.LatencyScale
	cfg.VisibilitySample = visSample
	return paris.NewCluster(cfg)
}

// Fig1 regenerates Figure 1 (a: 95:5, b: 50:50): throughput versus average
// transaction latency for PaRiS and BPR, one curve point per thread count.
func Fig1(o Options, mix workload.Mix) (parisCurve, bprCurve []Result, err error) {
	o = o.withDefaults()
	for _, mode := range []paris.Mode{paris.ModeNonBlocking, paris.ModeBlocking} {
		cluster, cerr := paperCluster(o, mode, 0)
		if cerr != nil {
			return parisCurve, bprCurve, cerr
		}
		curve, serr := Sweep(RunConfig{
			Cluster:          cluster,
			Mix:              mix,
			Duration:         o.Duration,
			Warmup:           o.Warmup,
			KeysPerPartition: o.KeysPerPartition,
		}, o.Threads)
		closeErr := cluster.Close()
		if serr != nil {
			return parisCurve, bprCurve, serr
		}
		if closeErr != nil {
			return parisCurve, bprCurve, closeErr
		}
		if mode == paris.ModeNonBlocking {
			parisCurve = curve
		} else {
			bprCurve = curve
		}
	}

	o.printf("# Fig1 — throughput vs avg latency (%s)\n", mix)
	o.printf("%-8s %-8s %-12s %-12s %-12s\n", "system", "threads", "ktx/s", "avg-lat", "p99-lat")
	emit := func(name string, curve []Result) {
		for _, r := range curve {
			o.printf("%-8s %-8d %-12.1f %-12v %-12v\n", name, r.Threads,
				r.ThroughputTx/1000, r.Latency.Mean().Round(10*time.Microsecond),
				r.Latency.Percentile(0.99).Round(10*time.Microsecond))
		}
	}
	emit("paris", parisCurve)
	emit("bpr", bprCurve)
	p, b := PeakThroughput(parisCurve), PeakThroughput(bprCurve)
	o.printf("peak: paris %.0f tx/s vs bpr %.0f tx/s (%.2fx); latency at peak %v vs %v (%.2fx)\n\n",
		p.ThroughputTx, b.ThroughputTx, p.ThroughputTx/b.ThroughputTx,
		p.Latency.Mean().Round(10*time.Microsecond), b.Latency.Mean().Round(10*time.Microsecond),
		float64(b.Latency.Mean())/float64(p.Latency.Mean()))
	return parisCurve, bprCurve, nil
}

// BlockingTime reproduces §V-B "Blocking time": the average wait of the read
// phase in BPR at the top-throughput load point, for both workload mixes.
func BlockingTime(o Options) (readHeavy, writeHeavy time.Duration, err error) {
	o = o.withDefaults()
	run := func(mix workload.Mix) (time.Duration, error) {
		cluster, err := paperCluster(o, paris.ModeBlocking, 0)
		if err != nil {
			return 0, err
		}
		defer func() { _ = cluster.Close() }()
		res, err := Run(RunConfig{
			Cluster:          cluster,
			Mix:              mix,
			ThreadsPerDC:     o.SaturationThreads,
			Duration:         o.Duration,
			Warmup:           o.Warmup,
			KeysPerPartition: o.KeysPerPartition,
		})
		if err != nil {
			return 0, err
		}
		return res.MeanBlockingTime(), nil
	}
	if readHeavy, err = run(workload.ReadHeavy); err != nil {
		return
	}
	if writeHeavy, err = run(workload.WriteHeavy); err != nil {
		return
	}
	o.printf("# Blocking time (BPR, top throughput)\n")
	o.printf("95:5  read phase avg block: %v\n", readHeavy.Round(10*time.Microsecond))
	o.printf("50:50 read phase avg block: %v\n\n", writeHeavy.Round(10*time.Microsecond))
	return
}

// ScalePoint is one configuration of the scalability experiments.
type ScalePoint struct {
	DCs           int
	MachinesPerDC int
	Result        Result
}

// runScalePoint runs the default workload on a (DCs × machines/DC) cluster.
// machines/DC maps to partitions via N = DCs·machines/RF (one partition per
// server, as the paper deploys).
//
// Adaptation for a single host (see EXPERIMENTS.md): the paper's testbed
// adds physical CPUs as it adds machines, so peak throughput grows ~3x from
// 6 to 18 machines/DC. A simulation on fixed hardware cannot add CPUs;
// instead these points hold the *offered load constant* while the system
// grows and check that throughput and latency stay flat — i.e. that the
// protocol itself (UST gossip, single-scalar metadata, tree aggregation)
// adds no per-node cost that grows with the deployment, which is the
// property the paper's scaling curves demonstrate.
func runScalePoint(o Options, dcs, machines int) (ScalePoint, error) {
	cfg := paris.DefaultConfig()
	cfg.NumDCs = dcs
	cfg.ReplicationFactor = 2
	cfg.NumPartitions = dcs * machines / cfg.ReplicationFactor
	cfg.LatencyScale = o.LatencyScale
	// The paper runs stabilization at a fixed 5 ms regardless of cluster
	// size; pinning it here keeps per-server background cost constant as the
	// simulated deployment grows, so the scale sweep measures the protocol
	// rather than host timer pressure.
	cfg.ApplyInterval = 5 * time.Millisecond
	cfg.GossipInterval = 5 * time.Millisecond
	cfg.USTInterval = 5 * time.Millisecond
	cluster, err := paris.NewCluster(cfg)
	if err != nil {
		return ScalePoint{}, err
	}
	defer func() { _ = cluster.Close() }()
	// Constant total offered load across all scale points.
	totalThreads := o.SaturationThreads * 3
	perDC := totalThreads / dcs
	if perDC < 1 {
		perDC = 1
	}
	res, err := Run(RunConfig{
		Cluster:          cluster,
		Mix:              workload.ReadHeavy,
		ThreadsPerDC:     perDC,
		Duration:         o.Duration,
		Warmup:           o.Warmup,
		KeysPerPartition: o.KeysPerPartition,
	})
	if err != nil {
		return ScalePoint{}, err
	}
	return ScalePoint{DCs: dcs, MachinesPerDC: machines, Result: res}, nil
}

// Fig2a regenerates Figure 2a: throughput when varying machines per DC
// (6, 12, 18) at 3 and 5 DCs.
func Fig2a(o Options) ([]ScalePoint, error) {
	o = o.withDefaults()
	var points []ScalePoint
	for _, dcs := range []int{3, 5} {
		for _, machines := range []int{6, 12, 18} {
			p, err := runScalePoint(o, dcs, machines)
			if err != nil {
				return points, err
			}
			points = append(points, p)
		}
	}
	o.printf("# Fig2a — constant offered load vs machines/DC\n")
	o.printf("%-6s %-12s %-12s %-12s\n", "DCs", "machines/DC", "ktx/s", "avg-lat")
	for _, p := range points {
		o.printf("%-6d %-12d %-12.1f %-12v\n", p.DCs, p.MachinesPerDC,
			p.Result.ThroughputTx/1000, p.Result.Latency.Mean().Round(10*time.Microsecond))
	}
	o.printf("\n")
	return points, nil
}

// Fig2b regenerates Figure 2b: throughput when varying the number of DCs
// (3, 5, 10) at 6 and 12 machines per DC.
func Fig2b(o Options) ([]ScalePoint, error) {
	o = o.withDefaults()
	var points []ScalePoint
	for _, machines := range []int{6, 12} {
		for _, dcs := range []int{3, 5, 10} {
			p, err := runScalePoint(o, dcs, machines)
			if err != nil {
				return points, err
			}
			points = append(points, p)
		}
	}
	o.printf("# Fig2b — constant offered load vs number of DCs\n")
	o.printf("%-12s %-6s %-12s %-12s\n", "machines/DC", "DCs", "ktx/s", "avg-lat")
	for _, p := range points {
		o.printf("%-12d %-6d %-12.1f %-12v\n", p.MachinesPerDC, p.DCs,
			p.Result.ThroughputTx/1000, p.Result.Latency.Mean().Round(10*time.Microsecond))
	}
	o.printf("\n")
	return points, nil
}

// LocalityPoint is one locality ratio's outcome (Fig. 3).
type LocalityPoint struct {
	LocalRatio float64
	Result     Result
}

// Fig3 regenerates Figures 3a/3b: throughput and latency as the local-DC :
// multi-DC transaction ratio varies over 100:0, 95:5, 90:10, 50:50.
func Fig3(o Options) ([]LocalityPoint, error) {
	o = o.withDefaults()
	cluster, err := paperCluster(o, paris.ModeNonBlocking, 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = cluster.Close() }()

	var points []LocalityPoint
	for _, local := range []float64{1.0, 0.95, 0.90, 0.50} {
		// Lower locality needs more threads to reach saturation (§V-D: 32 →
		// 512 in the paper); scale the thread count with remote fraction.
		threads := o.SaturationThreads
		if local < 0.95 {
			threads *= 2
		}
		if local <= 0.5 {
			threads *= 2
		}
		res, err := Run(RunConfig{
			Cluster:          cluster,
			Mix:              workload.ReadHeavy.WithLocality(local),
			ThreadsPerDC:     threads,
			Duration:         o.Duration,
			Warmup:           o.Warmup,
			KeysPerPartition: o.KeysPerPartition,
		})
		if err != nil {
			return points, err
		}
		points = append(points, LocalityPoint{LocalRatio: local, Result: res})
	}
	o.printf("# Fig3 — locality sweep (PaRiS)\n")
	o.printf("%-12s %-12s %-12s\n", "local:multi", "ktx/s", "avg-lat")
	for _, p := range points {
		o.printf("%2.0f:%-9.0f %-12.1f %-12v\n", p.LocalRatio*100, 100-p.LocalRatio*100,
			p.Result.ThroughputTx/1000, p.Result.Latency.Mean().Round(10*time.Microsecond))
	}
	o.printf("\n")
	return points, nil
}

// Fig4 regenerates Figure 4: the CDF of update visibility latency for PaRiS
// and BPR under the default workload.
func Fig4(o Options) (parisCDF, bprCDF []CDFPoint, err error) {
	o = o.withDefaults()
	// One Quantiles per system: sorted once, then CDF and every printed
	// percentile read from the same sorted view.
	run := func(mode paris.Mode) (*Quantiles, error) {
		cluster, err := paperCluster(o, mode, 4) // sample every 4th update
		if err != nil {
			return nil, err
		}
		defer func() { _ = cluster.Close() }()
		res, err := Run(RunConfig{
			Cluster:          cluster,
			Mix:              workload.ReadHeavy,
			ThreadsPerDC:     o.SaturationThreads,
			Duration:         o.Duration,
			Warmup:           o.Warmup,
			KeysPerPartition: o.KeysPerPartition,
		})
		if err != nil {
			return nil, err
		}
		return NewQuantiles(res.Visibility), nil
	}
	parisQ, err := run(paris.ModeNonBlocking)
	if err != nil {
		return nil, nil, err
	}
	parisCDF = parisQ.CDF()
	bprQ, err := run(paris.ModeBlocking)
	if err != nil {
		return parisCDF, nil, err
	}
	bprCDF = bprQ.CDF()
	o.printf("# Fig4 — update visibility latency\n")
	o.printf("%-8s %-10s %-10s %-10s %-10s\n", "system", "p50", "p90", "p99", "mean")
	o.printf("%-8s %-10v %-10v %-10v %-10v\n", "paris",
		parisQ.At(0.50).Round(time.Millisecond),
		parisQ.At(0.90).Round(time.Millisecond),
		parisQ.At(0.99).Round(time.Millisecond),
		parisQ.Mean().Round(time.Millisecond))
	o.printf("%-8s %-10v %-10v %-10v %-10v\n\n", "bpr",
		bprQ.At(0.50).Round(time.Millisecond),
		bprQ.At(0.90).Round(time.Millisecond),
		bprQ.At(0.99).Round(time.Millisecond),
		bprQ.Mean().Round(time.Millisecond))
	return parisCDF, bprCDF, nil
}
