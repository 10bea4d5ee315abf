package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// claimBound is the bound -compare holds the ungated metrics to. They have
// none in BENCHMARK.json, because no bound a gate may have contains the box's
// spells; between alternating runs a spell hits both sides alike, and 0.10 is
// what the issue that defined the benchmark proposed for them.
const claimBound = 0.10

// compared lists what -compare judges: the gated metrics at their bounds and
// the ungated ones at claimBound.
func compared() []metricSpec {
	out := append([]metricSpec(nil), endToEnd...)
	for _, s := range ungated {
		s.Bound = claimBound
		out = append(out, s)
	}
	return out
}

// side summarises one set's values of one metric.
type side struct {
	n          int
	q1, q2, q3 float64
}

func summarise(vals []float64) side {
	q1, q2, q3 := quartiles(vals)
	return side{n: len(vals), q1: q1, q2: q2, q3: q3}
}

// spread is the interquartile distance as a share of the median — the
// acceptance driver's definition of run-to-run spread.
func (s side) spread() float64 { return ratio(s.q3-s.q1, s.q2) }

// judge compares set B against set A for one metric. worse is the share of
// A's median by which B's median is worse (negative: better). A spread wider
// than the bound on either side means the sets cannot resolve a change of the
// bound's size, and the verdict says so rather than say "same".
func judge(spec metricSpec, a, b side) (worse float64, verdict string) {
	worse = ratio(b.q2-a.q2, a.q2)
	if spec.Better == higher {
		worse = -worse
	}
	switch {
	case a.n < 2 || b.n < 2 || max(a.spread(), b.spread()) > spec.Bound:
		verdict = verdictUnresolved
	case worse > spec.Bound:
		verdict = verdictWorse
	case worse < -spec.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return worse, verdict
}

func loadResults(paths []string) (map[string][]*result, error) {
	out := make(map[string][]*result)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a -json result (no workload)", p)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

func valuesOf(rs []*result, metric string) []float64 {
	var vals []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

// runCompare implements -compare A.json... -- B.json... and returns the exit
// code: 1 when any metric is worse beyond its bound, 2 on bad usage.
func runCompare(args []string, w io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json... -- B.json...   (sets produced by alternating runs)")
		return 2
	}
	setA, err := loadResults(args[:sep])
	if err == nil {
		var setB map[string][]*result
		if setB, err = loadResults(args[sep+1:]); err == nil {
			return compareSets(setA, setB, w)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
	return 2
}

func compareSets(setA, setB map[string][]*result, w io.Writer) int {
	counts := make(map[string]int)
	fmt.Fprintf(w, "%-11s %-14s %5s %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s  %s\n",
		"workload", "metric", "n", "A q1", "A median", "A q3", "A iqr%", "B q1", "B median", "B q3", "B iqr%", "worse%", "bound%", "verdict")
	for _, wl := range workloads {
		ra, rb := setA[wl.Name], setB[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "%-11s note: a run with seed %d has correct=%v failed=%d\n", wl.Name, r.Env.Seed, r.Correct, r.Failed)
			}
			if steal := r.Metrics["proc.steal_pct"].Value; steal > maxCalmStealPct {
				fmt.Fprintf(w, "%-11s note: the hypervisor took %.0f%% of the processor time from the run with seed %d\n", wl.Name, steal, r.Env.Seed)
			}
		}
		for _, spec := range compared() {
			a, b := summarise(valuesOf(ra, spec.Name)), summarise(valuesOf(rb, spec.Name))
			if a.n == 0 || b.n == 0 {
				continue
			}
			worse, verdict := judge(spec, a, b)
			counts[verdict]++
			fmt.Fprintf(w, "%-11s %-14s %2d/%-2d %12.4f %12.4f %12.4f %7.2f | %12.4f %12.4f %12.4f %7.2f | %+8.2f %6.1f  %s\n",
				wl.Name, spec.Name, a.n, b.n, a.q1, a.q2, a.q3, 100*a.spread(), b.q1, b.q2, b.q3, 100*b.spread(),
				100*worse, 100*spec.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "same %d  better %d  worse %d  unresolved %d   (valid only if the two sets were produced by alternating runs)\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
