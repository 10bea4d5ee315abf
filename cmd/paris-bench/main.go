// Command paris-bench regenerates the paper's tables and figures (§V) on an
// embedded cluster. Each experiment prints the rows/series the corresponding
// figure plots; shapes are comparable with the paper, absolute numbers are
// single-host simulation numbers. The repository's per-change performance
// numbers come from benchmark/run.sh, not from here.
//
// Usage:
//
//	paris-bench -experiment fig1a            # Fig. 1a (95:5)
//	paris-bench -experiment all -quick       # everything, fast settings
//	paris-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/paris-kv/paris/internal/bench"
	"github.com/paris-kv/paris/internal/workload"
)

var experiments = []struct {
	name string
	desc string
	run  func(bench.Options) error
}{
	{"fig1a", "throughput vs latency, 95:5 r:w, PaRiS vs BPR (Fig. 1a)", runFig1a},
	{"fig1b", "throughput vs latency, 50:50 r:w, PaRiS vs BPR (Fig. 1b)", runFig1b},
	{"blocking", "average BPR read blocking time (§V-B)", runBlocking},
	{"fig2a", "throughput vs machines/DC at 3 and 5 DCs (Fig. 2a)", runFig2a},
	{"fig2b", "throughput vs DCs at 6 and 12 machines/DC (Fig. 2b)", runFig2b},
	{"fig3", "throughput and latency vs transaction locality (Fig. 3)", runFig3},
	{"fig4", "update visibility latency CDF, PaRiS vs BPR (Fig. 4)", runFig4},
	{"table1", "taxonomy of causally consistent systems (Table I)", runTable1},
}

func main() {
	var (
		expName  = flag.String("experiment", "all", "experiment id (see -list)")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "short durations and small sweeps")
		duration = flag.Duration("duration", 0, "measured duration per load point")
		warmup   = flag.Duration("warmup", 0, "warmup before each load point")
		scale    = flag.Float64("scale", 0.05, "latency scale vs real AWS geography")
		threads  = flag.String("threads", "", "comma-separated per-DC thread sweep (e.g. 1,2,4,8)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	opts := bench.Options{
		LatencyScale: *scale,
		Duration:     *duration,
		Warmup:       *warmup,
		Out:          os.Stdout,
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
		if err := e.run(opts); err != nil {
			fatalf("%s: %v", e.name, err)
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

func runFig1a(o bench.Options) error {
	_, _, err := bench.Fig1(o, workload.ReadHeavy)
	return err
}

func runFig1b(o bench.Options) error {
	_, _, err := bench.Fig1(o, workload.WriteHeavy)
	return err
}

func runBlocking(o bench.Options) error {
	_, _, err := bench.BlockingTime(o)
	return err
}

func runFig2a(o bench.Options) error {
	_, err := bench.Fig2a(o)
	return err
}

func runFig2b(o bench.Options) error {
	_, err := bench.Fig2b(o)
	return err
}

func runFig3(o bench.Options) error {
	_, err := bench.Fig3(o)
	return err
}

func runFig4(o bench.Options) error {
	parisCDF, bprCDF, err := bench.Fig4(o)
	if err != nil {
		return err
	}
	fmt.Println("paris CDF (latency fraction):")
	printCDF(parisCDF)
	fmt.Println("bpr CDF (latency fraction):")
	printCDF(bprCDF)
	return nil
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
func runTable1(bench.Options) error {
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
	return nil
}
