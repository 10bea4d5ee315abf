// Command paris-bench regenerates the paper's tables and figures (§V) on an
// embedded cluster, plus this repository's own performance experiments. Each
// experiment prints the rows/series the corresponding figure plots; shapes
// are comparable with the paper, absolute numbers are single-host simulation
// numbers.
//
// Usage:
//
//	paris-bench -experiment fig1a            # Fig. 1a (95:5)
//	paris-bench -experiment nemesis -seed 7  # fault-scenario sweep, checked live
//	paris-bench -experiment all -quick       # everything, fast settings
//	paris-bench -list
//
// With -json-dir DIR every experiment additionally writes a machine-readable
// BENCH_<name>.json (ops, p50/p95/p99, messages/op) so the performance
// trajectory can be tracked across PRs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/paris-kv/paris"
	"github.com/paris-kv/paris/internal/bench"
	"github.com/paris-kv/paris/internal/nemesis"
	"github.com/paris-kv/paris/internal/workload"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Options) (*bench.Report, error)
}{
	{"fig1a", "throughput vs latency, 95:5 r:w, PaRiS vs BPR (Fig. 1a)", runFig1a},
	{"fig1b", "throughput vs latency, 50:50 r:w, PaRiS vs BPR (Fig. 1b)", runFig1b},
	{"blocking", "average BPR read blocking time (§V-B)", runBlocking},
	{"fig2a", "throughput vs machines/DC at 3 and 5 DCs (Fig. 2a)", runFig2a},
	{"fig2b", "throughput vs DCs at 6 and 12 machines/DC (Fig. 2b)", runFig2b},
	{"fig3", "throughput and latency vs transaction locality (Fig. 3)", runFig3},
	{"fig4", "update visibility latency CDF, PaRiS vs BPR (Fig. 4)", runFig4},
	{"hotpath", "client-operation hot path: scaling with parallelism (memnet + tcp), allocs/op", runHotpath},
	{"visibility", "commit→stable latency, its attribution to the stabilization plane's stages, the plane's cost, repair chunking", runVisibility},
	{"nemesis", "composed-fault scenario sweep with live consistency checking", runNemesis},
	{"table1", "taxonomy of causally consistent systems (Table I)", runTable1},
}

// Nemesis knobs live at package scope because experiment runners only
// receive bench.Options. The default seed matches the pinned regression
// seed in the TestNemesis_* suite, so `-experiment nemesis` with no flags
// replays exactly the schedules those tests pin.
var (
	nemSeed     = flag.Int64("seed", 7, "nemesis: fault-schedule seed (same seed replays the same schedule; 0 draws a random seed and logs it — soak mode)")
	nemScenario = flag.String("scenario", "", "nemesis: run only the named scenario (default: all)")
	nemBPR      = flag.Bool("bpr", false, "nemesis: run scenarios against the blocking BPR baseline")
)

func main() {
	var (
		expName    = flag.String("experiment", "all", "experiment id (see -list)")
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "short durations and small sweeps")
		duration   = flag.Duration("duration", 0, "measured duration per load point")
		warmup     = flag.Duration("warmup", 0, "warmup before each load point")
		scale      = flag.Float64("scale", 0.05, "latency scale vs real AWS geography")
		threads    = flag.String("threads", "", "comma-separated per-DC thread sweep (e.g. 1,2,4,8)")
		jsonDir    = flag.String("json-dir", "", "directory for BENCH_<name>.json reports (empty disables)")
		jsonName   = flag.String("json-name", "", "override the report name of a single experiment")
		batchItems = flag.Int("batch-items", 0,
			"replication batch max items (0 = default 1024)")
		batchBytes = flag.Int("batch-bytes", 0,
			"replication batch max payload bytes (0 = default 1 MiB)")
		connsPerPeer = flag.Int("conns-per-peer", 0,
			"TCP stripes per server pair in the loopback TCP arms (0 = default 4)")
		bandwidthBudget = flag.Int("bandwidth-budget", 0,
			"replication bandwidth budget per peer in bytes/second (0 disables flow control)")
		budgetBurst = flag.Int("budget-burst", 0,
			"flow-control token bucket burst in bytes (0 = budget/4, floored at 4 KiB)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("creating -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		// Sample every mutex contention event; the bench is short enough that
		// full sampling costs little and misses nothing.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fatalf("creating -mutexprofile: %v", err)
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fatalf("writing mutex profile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("creating -memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // flush the final allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("writing heap profile: %v", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	opts := bench.Options{
		LatencyScale:    *scale,
		Duration:        *duration,
		Warmup:          *warmup,
		BatchMaxItems:   *batchItems,
		BatchMaxBytes:   *batchBytes,
		ConnsPerPeer:    *connsPerPeer,
		BandwidthBudget: *bandwidthBudget,
		BudgetBurst:     *budgetBurst,
		Out:             os.Stdout,
	}
	if *quick {
		opts.Duration = 500 * time.Millisecond
		opts.Warmup = 150 * time.Millisecond
		opts.Threads = []int{1, 4, 8}
		opts.SaturationThreads = 4
	}
	if *threads != "" {
		opts.Threads = nil
		for _, part := range strings.Split(*threads, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n <= 0 {
				fatalf("bad -threads value %q", part)
			}
			opts.Threads = append(opts.Threads, n)
		}
	}

	ran := false
	for _, e := range experiments {
		if *expName != "all" && e.name != *expName {
			continue
		}
		ran = true
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		start := time.Now()
		report, err := e.run(opts)
		if err != nil {
			fatalf("%s: %v", e.name, err)
		}
		if *jsonDir != "" && report != nil {
			if *jsonName != "" && *expName != "all" {
				report.Name = *jsonName
			}
			path, err := bench.WriteReport(*jsonDir, report)
			if err != nil {
				fatalf("%s: %v", e.name, err)
			}
			fmt.Printf("(wrote %s)\n", path)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fatalf("unknown experiment %q (use -list)", *expName)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "paris-bench: "+format+"\n", args...)
	os.Exit(1)
}

// curveReport tabulates one or two mode curves as report rows.
func curveReport(name, desc string, curves map[string][]bench.Result) *bench.Report {
	rep := &bench.Report{Name: name, Desc: desc}
	for _, label := range []string{"paris", "bpr"} {
		for _, r := range curves[label] {
			rep.Rows = append(rep.Rows, bench.RowFromResult(label, r))
		}
	}
	return rep
}

func runFig1a(o bench.Options) (*bench.Report, error) {
	parisCurve, bprCurve, err := bench.Fig1(o, workload.ReadHeavy)
	if err != nil {
		return nil, err
	}
	return curveReport("fig1a", "throughput vs latency, 95:5 r:w",
		map[string][]bench.Result{"paris": parisCurve, "bpr": bprCurve}), nil
}

func runFig1b(o bench.Options) (*bench.Report, error) {
	parisCurve, bprCurve, err := bench.Fig1(o, workload.WriteHeavy)
	if err != nil {
		return nil, err
	}
	return curveReport("fig1b", "throughput vs latency, 50:50 r:w",
		map[string][]bench.Result{"paris": parisCurve, "bpr": bprCurve}), nil
}

func runBlocking(o bench.Options) (*bench.Report, error) {
	readHeavy, writeHeavy, err := bench.BlockingTime(o)
	if err != nil {
		return nil, err
	}
	return &bench.Report{
		Name: "blocking",
		Desc: "average BPR read blocking time",
		Summary: map[string]float64{
			"read_heavy_block_us":  float64(readHeavy.Microseconds()),
			"write_heavy_block_us": float64(writeHeavy.Microseconds()),
		},
	}, nil
}

func scaleReport(name, desc string, points []bench.ScalePoint) *bench.Report {
	rep := &bench.Report{Name: name, Desc: desc}
	for _, p := range points {
		rep.Rows = append(rep.Rows, bench.RowFromResult(
			fmt.Sprintf("dcs=%d,machines=%d", p.DCs, p.MachinesPerDC), p.Result))
	}
	return rep
}

func runFig2a(o bench.Options) (*bench.Report, error) {
	points, err := bench.Fig2a(o)
	if err != nil {
		return nil, err
	}
	return scaleReport("fig2a", "constant offered load vs machines/DC", points), nil
}

func runFig2b(o bench.Options) (*bench.Report, error) {
	points, err := bench.Fig2b(o)
	if err != nil {
		return nil, err
	}
	return scaleReport("fig2b", "constant offered load vs number of DCs", points), nil
}

func runFig3(o bench.Options) (*bench.Report, error) {
	points, err := bench.Fig3(o)
	if err != nil {
		return nil, err
	}
	rep := &bench.Report{Name: "fig3", Desc: "locality sweep (PaRiS)"}
	for _, p := range points {
		rep.Rows = append(rep.Rows, bench.RowFromResult(
			fmt.Sprintf("local=%.0f%%", p.LocalRatio*100), p.Result))
	}
	return rep, nil
}

func runFig4(o bench.Options) (*bench.Report, error) {
	parisCDF, bprCDF, err := bench.Fig4(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("paris CDF (latency fraction):")
	printCDF(parisCDF)
	fmt.Println("bpr CDF (latency fraction):")
	printCDF(bprCDF)
	rep := &bench.Report{Name: "fig4", Desc: "update visibility latency CDF", Summary: map[string]float64{}}
	for label, cdf := range map[string][]bench.CDFPoint{"paris": parisCDF, "bpr": bprCDF} {
		for _, q := range []float64{0.50, 0.90, 0.99} {
			for _, p := range cdf {
				if p.Fraction >= q {
					rep.Summary[fmt.Sprintf("%s_vis_p%.0f_us", label, q*100)] =
						float64(p.Value.Microseconds())
					break
				}
			}
		}
	}
	return rep, nil
}

func runHotpath(o bench.Options) (*bench.Report, error) {
	cmp, err := bench.Hotpath(o)
	if err != nil {
		return nil, err
	}
	return cmp.Report("hotpath"), nil
}

func runVisibility(o bench.Options) (*bench.Report, error) {
	cmp, err := bench.Visibility(o)
	if err != nil {
		return nil, err
	}
	return cmp.Report("visibility"), nil
}

// runNemesis sweeps the nemesis scenario suite at the configured seed: each
// scenario composes network/clock/crash faults over a running production-
// shaped workload while internal/check validates the recorded history live.
// Any violation or failed drain fails the experiment. -duration (or -quick)
// shortens — or for a soak lengthens — the fault phase; -seed N replays a
// specific schedule, -seed 0 draws a fresh random one and logs it so a
// failing soak run stays reproducible; -scenario narrows the sweep to one
// scenario. A 30-second soak over fresh schedules:
//
//	paris-bench -experiment nemesis -seed 0 -duration 30s
func runNemesis(o bench.Options) (*bench.Report, error) {
	names := nemesis.Names()
	if *nemScenario != "" {
		if _, ok := nemesis.Lookup(*nemScenario); !ok {
			return nil, fmt.Errorf("unknown scenario %q (have %v)", *nemScenario, nemesis.Names())
		}
		names = []string{*nemScenario}
	}
	seed := *nemSeed
	if seed == 0 {
		seed = time.Now().UnixNano()&0x7fffffff + 1
		fmt.Printf("drew random seed %d (reproduce with -seed %d)\n", seed, seed)
	}
	mode := paris.ModeNonBlocking
	if *nemBPR {
		mode = paris.ModeBlocking
	}
	rep := &bench.Report{
		Name:    "nemesis",
		Desc:    "composed-fault scenario sweep with live consistency checking",
		Summary: map[string]float64{},
	}
	var failedScenarios []string
	var violations, committed, migrations uint64
	var flowMaxQueued int
	var flowDegraded, flowShed, flowCoalesced uint64
	for _, name := range names {
		res, err := nemesis.Run(nemesis.Options{
			Scenario: name,
			Seed:     seed,
			Mode:     mode,
			// o.Duration is zero unless -duration/-quick was given; zero keeps
			// the nemesis default fault phase (1.2s).
			FaultPhase: o.Duration,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(res)
		if !res.Ok() {
			failedScenarios = append(failedScenarios, name)
			for _, ev := range res.Events {
				fmt.Println("    ", ev)
			}
		}
		rep.Rows = append(rep.Rows, bench.ReportRow{
			Label:    name,
			Ops:      res.Committed,
			TxPerSec: float64(res.Committed) / res.Elapsed.Seconds(),
		})
		violations += uint64(len(res.Violations))
		committed += res.Committed
		migrations += res.Migrations
		if res.FlowMaxQueuedBytes > flowMaxQueued {
			flowMaxQueued = res.FlowMaxQueuedBytes
		}
		flowDegraded += res.FlowDegradedEntries
		flowShed += res.FlowShedRounds
		flowCoalesced += res.FlowCoalesced
	}
	rep.Summary["scenarios"] = float64(len(names))
	rep.Summary["committed"] = float64(committed)
	rep.Summary["migrations"] = float64(migrations)
	rep.Summary["violations"] = float64(violations)
	rep.Summary["flow_max_queue_bytes"] = float64(flowMaxQueued)
	rep.Summary["flow_degraded_entries"] = float64(flowDegraded)
	rep.Summary["flow_shed_rounds"] = float64(flowShed)
	rep.Summary["flow_coalesced"] = float64(flowCoalesced)
	if len(failedScenarios) > 0 {
		return rep, fmt.Errorf("%d scenario(s) failed: %s (reproduce with -experiment nemesis -seed %d -scenario <name>)",
			len(failedScenarios), strings.Join(failedScenarios, ", "), seed)
	}
	return rep, nil
}

func printCDF(cdf []bench.CDFPoint) {
	step := len(cdf) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(cdf); i += step {
		fmt.Printf("  %10v %.3f\n", cdf[i].Value.Round(time.Millisecond), cdf[i].Fraction)
	}
	if len(cdf) > 0 {
		last := cdf[len(cdf)-1]
		fmt.Printf("  %10v %.3f\n", last.Value.Round(time.Millisecond), last.Fraction)
	}
}

// runTable1 prints the paper's Table I verbatim: the qualitative taxonomy of
// causally consistent systems. PaRiS's row is what this repository
// implements; the table is reproduced for completeness since it is part of
// the paper's evaluation narrative.
func runTable1(bench.Options) (*bench.Report, error) {
	fmt.Print(`System          Txs      Nonbl.reads PartialRep Meta-data
COPS            ROT      yes         no         O(|deps|)
Eiger           ROT/WOT  yes         no         O(|deps|)
ChainReaction   ROT      no          no         M
Orbe            ROT      no          no         1 ts
GentleRain      ROT      no          no         1 ts
POCC            ROT      no          no         M
COPS-SNOW       ROT      yes         no         O(|deps|)
OCCULT          Generic  no          no         O(M)
Cure            Generic  no          no         M
Wren            Generic  yes         no         2 ts
AV              Generic  yes         no         M
Xiang/Vaidya    none     no          yes        1 ts
Contrarian      ROT      yes         no         M
C3              none     yes         yes        M
Saturn          none     yes         yes        1 ts
Karma           ROT      yes         yes        O(|deps|)
CausalSpartan   none     yes         no         M
Bolt-on CC      none     yes         no         M
EunomiaKV       none     yes         no         M
PaRiS (this)    Generic  yes         yes        1 ts
`)
	return nil, nil
}
