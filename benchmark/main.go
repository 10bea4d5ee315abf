// Command benchmark is the repository's performance benchmark: four
// closed-loop workloads, four gated end-to-end metrics, five more that only
// -compare judges, and a per-layer table measured from outside the product
// packages. See README.md.
//
//	go run . -workload mem-read -seed 1              # everything, one workload
//	go run . -workload mem-read -seed 1 -trace 0     # end-to-end metrics only
//	go run . -compare A1.json A2.json -- B1.json B2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// runSeconds is the measured interval the acceptance driver asks for. The
// driver's budget (92 runs and two builds in 3420 s) leaves about 35 s a run:
// five set-ups, 3 s of warm-up and 20 s measured take 25–28 s.
const runSeconds = 20

// timedSetups is how many times a run sets up: setup_s is their median and the
// last cluster is the one measured. Smoke and per-layer-only runs set up once.
const timedSetups = 5

// Trace modes. The acceptance driver asks for the two halves separately; a
// person usually wants both from one cluster.
const (
	traceOff  = 0 // untraced interval only: the end-to-end metrics
	traceOnly = 1 // short untraced reference, traced pass, probes: the per-layer metrics
	traceBoth = 2
)

type options struct {
	workload string
	seed     int64
	trace    int
	seconds  time.Duration // untraced measured interval
	warmup   time.Duration
	traced   time.Duration // traced pass
	setups   int           // timedSetups, or 1
	out      string        // directory for the span file
	jsonPath string
	// scale divides the probes' iteration counts and the length of the checked
	// history; -smoke raises it.
	scale int
}

// environment is recorded in every result, because absolute numbers mean
// nothing without the machine and because comparisons are only valid between
// runs that alternate on one machine.
type environment struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	TracedSeconds float64 `json:"traced_seconds"`
	Setups        int     `json:"setups"`
	Trace         int     `json:"trace"`
	LoadavgStart  float64 `json:"loadavg1_start"`
	LoadavgEnd    float64 `json:"loadavg1_end"`
}

// result is the full document -json writes; the last line of standard output
// carries its first four fields only.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Workload  string                 `json:"workload"`
	Env       environment            `json:"env"`
	Windows   []float64              `json:"window_tx_per_s,omitempty"`
	SpanFile  string                 `json:"span_file,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		o        options
		compare  bool
		spec     bool
		smoke    bool
		secs     float64
		warm     float64
		tracedFl float64
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.trace, "trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only (traced pass and probes); 2: both")
	flag.Float64Var(&secs, "seconds", runSeconds, "untraced measured interval, seconds")
	flag.Float64Var(&warm, "warmup", 3, "warm-up before the measured interval, seconds")
	flag.Float64Var(&tracedFl, "traced-seconds", 8, "traced pass, seconds")
	flag.StringVar(&o.out, "out", "", "directory for the traced pass's span file, spans-<workload>.jsonl (default: paris-benchmark/ under the system temp dir)")
	flag.StringVar(&o.jsonPath, "json", "", "also write the full result document, with the environment block, to this file (input of -compare)")
	flag.BoolVar(&smoke, "smoke", false, "1 s measured, one set-up, short traced pass and probes: checks that everything runs, measures nothing")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json's workloads and metric tables and exit")
	flag.BoolVar(&compare, "compare", false, "compare two sets of -json results: -compare A.json... -- B.json...")
	flag.Usage = usage
	flag.Parse()

	switch {
	case spec:
		return printSpec()
	case compare:
		return runCompare(flag.Args(), os.Stdout)
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.warmup = time.Duration(warm * float64(time.Second))
	o.traced = time.Duration(tracedFl * float64(time.Second))
	o.setups, o.scale = timedSetups, 1
	if smoke {
		o = smokeOptions(o)
	}
	if o.trace < traceOff || o.trace > traceBoth || o.seconds <= 0 || o.traced <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0, 1 or 2; -seconds and -traced-seconds positive")
		return 2
	}

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printTable(os.Stdout, res)
	if o.jsonPath != "" {
		doc, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing -json:", err)
			return 1
		}
	}
	fmt.Println(lastLine(res))
	if !res.Correct {
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "benchmark: INCORRECT:", p)
		}
		return 1
	}
	return 0
}

// smokeOptions shrinks a run to a second: enough to see every phase work,
// too little to measure anything.
func smokeOptions(o options) options {
	o.seconds, o.warmup, o.traced = time.Second, 200*time.Millisecond, 500*time.Millisecond
	o.setups, o.scale = 1, 50
	return o
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `usage: benchmark -workload <name> [-seed n] [-trace 0|1|2] [-seconds s] [-json file]
       benchmark -compare A.json... -- B.json...

-compare reads two sets of -json results and prints, per workload and metric
(the gated ones at BENCHMARK.json's bounds; throughput, the three latency
medians and vis_p95_ms at 0.10), each side's median and quartiles, the
relative change against the bound, and a verdict: same, worse, better, or
unresolved (either side's own spread is wider than the bound). The two sets
must be produced by ALTERNATING runs (A B A B ...) on one machine: this box drifts by
tens of percent over minutes, so sets measured one after the other compare
the machine's two moods, not the two programs.

`)
	flag.PrintDefaults()
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// lastLine is the acceptance driver's contract: exactly these four keys,
// value and unit alone for each metric, and the metrics of the table the run
// was asked for — an end-to-end run also measures the ungated metrics, which
// only the table above the line and the -json document carry.
func lastLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var specs []metricSpec
	if res.Env.Trace != traceOnly {
		specs = append(specs, endToEnd...)
	}
	if res.Env.Trace != traceOff {
		specs = append(specs, perLayer...)
	}
	metrics := make(map[string]mv, len(specs))
	for _, s := range specs {
		if v, ok := res.Metrics[s.Name]; ok {
			metrics[s.Name] = mv{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}

func printTable(w *os.File, res *result) {
	e := res.Env
	fmt.Fprintf(w, "workload %s  seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  loadavg1 %.2f -> %.2f\n",
		res.Workload, e.Seed, e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.LoadavgStart, e.LoadavgEnd)
	fmt.Fprintf(w, "measured %.1fs  warm-up %.1fs  traced %.1fs  set-ups %d  attempted %d  failed %d\n",
		e.Seconds, e.WarmupSeconds, e.TracedSeconds, e.Setups, res.Attempted, res.Failed)
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range table {
			v, ok := res.Metrics[s.Name]
			if !ok {
				continue
			}
			note := ""
			if v.N > 0 {
				note = fmt.Sprintf("  n=%d", v.N)
				if v.Q > 0 {
					note += fmt.Sprintf(" q=%.5f", v.Q)
				}
			}
			fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", s.Name, v.Value, s.Unit, note)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", res.SpanFile)
	}
}

// benchmarkSpec is BENCHMARK.json: -spec prints it and a test holds the
// committed file to it.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.Name, w.Why})
	}
	return spec
}

func printSpec() int {
	doc, err := json.MarshalIndent(currentSpec(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(doc))
	return 0
}
