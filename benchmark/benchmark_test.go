package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/paris-kv/paris/internal/topology"
)

func testInputs(t *testing.T) (*topology.Topology, *keyspace, *zipfTable) {
	t.Helper()
	topo, err := topology.New(numDCs, numPartitions, replication)
	if err != nil {
		t.Fatal(err)
	}
	return topo, newKeyspace(topo, keysPerPartition), newZipfTable(keysPerPartition, zipfTheta)
}

// planHash folds the generator's next n plans — keys and values — into an
// FNV-1a hash.
func planHash(g *generator, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		p := g.next()
		for _, k := range p.reads {
			h.Write([]byte(k + "\x00"))
		}
		for i, k := range p.writes {
			h.Write([]byte(k + "\x00"))
			h.Write(p.vals[i])
		}
	}
	return h.Sum64()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	topo, ks, zipf := testInputs(t)
	for _, w := range workloads {
		a := planHash(newGenerator(w, topo, ks, zipf, 0, 0, 7), 2000)
		b := planHash(newGenerator(w, topo, ks, zipf, 0, 0, 7), 2000)
		c := planHash(newGenerator(w, topo, ks, zipf, 0, 0, 8), 2000)
		d := planHash(newGenerator(w, topo, ks, zipf, 1, 1, 7), 2000)
		if a != b {
			t.Errorf("%s: same seed gave different plan sequences", w.Name)
		}
		if a == c || a == d {
			t.Errorf("%s: another seed or session gave the same plan sequence", w.Name)
		}
	}
}

// TestMixShares holds each mix to its specification: operation counts,
// partitions per transaction, distinct keys, and the partition and locality
// shares within one percentage point.
func TestMixShares(t *testing.T) {
	topo, ks, zipf := testInputs(t)
	const txs = 20000
	for _, w := range workloads {
		for session := 0; session < numSessions; session++ {
			dc := topology.DCID(session)
			g := newGenerator(w, topo, ks, zipf, session, dc, 11)
			perPartition := make(map[topology.PartitionID]int)
			remoteTxs, ops := 0, 0
			for i := 0; i < txs; i++ {
				p := g.next()
				if len(p.reads) != w.reads || len(p.writes) != w.writes || len(p.reads)+len(p.writes) != 20 {
					t.Fatalf("%s: %d reads + %d writes", w.Name, len(p.reads), len(p.writes))
				}
				touched := make(map[topology.PartitionID]bool)
				for _, keys := range [][]string{p.reads, p.writes} {
					distinct := make(map[string]bool)
					for _, k := range keys {
						distinct[k] = true
						touched[topo.PartitionOf(k)] = true
						perPartition[topo.PartitionOf(k)]++
						ops++
					}
					if len(distinct) != len(keys) {
						t.Fatalf("%s: repeated key inside one transaction's reads or writes", w.Name)
					}
				}
				if len(touched) != w.parts {
					t.Fatalf("%s: transaction touched %d partitions, want %d", w.Name, len(touched), w.parts)
				}
				remote := false
				for part := range touched {
					if !topo.IsReplicatedAt(part, dc) {
						remote = true
					}
				}
				if remote {
					remoteTxs++
				}
				if w.Name == "wan-remote" {
					writeParts := make(map[topology.PartitionID]bool)
					for _, k := range p.writes {
						writeParts[topo.PartitionOf(k)] = true
					}
					if len(writeParts) != w.writes {
						t.Fatalf("wan-remote: %d writes on %d partitions, want one per partition", w.writes, len(writeParts))
					}
				}
			}
			cands := numPartitions
			wantRemote := 1 - 1.0/15 // 1 − 1/C(6,4): all four drawn partitions local
			if w.local {
				cands, wantRemote = len(topo.PartitionsAt(dc)), 0
			}
			if got := float64(remoteTxs) / txs; math.Abs(got-wantRemote) > 0.01 {
				t.Errorf("%s session %d: %.3f of transactions touch a remote partition, want %.3f", w.Name, session, got, wantRemote)
			}
			if len(perPartition) != cands {
				t.Errorf("%s session %d: operations on %d partitions, want %d", w.Name, session, len(perPartition), cands)
			}
			for part, n := range perPartition {
				if got, want := float64(n)/float64(ops), 1/float64(cands); math.Abs(got-want) > 0.01 {
					t.Errorf("%s session %d: partition %d holds %.3f of operations, want %.3f", w.Name, session, part, got, want)
				}
			}
		}
	}
}

func TestZipfTableMatchesDistribution(t *testing.T) {
	_, _, zipf := testInputs(t)
	rng := rand.New(rand.NewSource(3))
	const draws = 400000
	counts := make([]int, keysPerPartition)
	for i := 0; i < draws; i++ {
		counts[zipf.draw(rng)]++
	}
	sum := 0.0
	for i := 1; i <= keysPerPartition; i++ {
		sum += 1 / math.Pow(float64(i), zipfTheta)
	}
	for _, rank := range []int{0, 1, 9, 99} {
		want := 1 / math.Pow(float64(rank+1), zipfTheta) / sum
		if got := float64(counts[rank]) / draws; math.Abs(got-want) > 0.1*want+0.0002 {
			t.Errorf("rank %d drawn with share %.5f, want %.5f", rank, got, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.51, 60}, {0.95, 100}, {0.9, 90}, {0, 10}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]int64(nil), 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d", got)
	}

	// 1000 samples support p99 exactly (10 beyond); p999 falls back to it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if v, q := tailQuantile(big, 0.99); v != 990 || q != 0.99 {
		t.Errorf("p99 of 1000 = %d at q=%v", v, q)
	}
	if v, q := tailQuantile(big, 0.999); v != 990 || q != 0.99 {
		t.Errorf("p999 of 1000 = %d at q=%v, want the p99", v, q)
	}
	if _, q := tailQuantile(big[:44], 0.99); math.Abs(q-(1-10.0/44)) > 1e-12 {
		t.Errorf("p99 of 44 samples read at q=%v", q)
	}

	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
}

func TestWindowArithmetic(t *testing.T) {
	// Eight 3 s windows of a 24 s interval.
	a, b := &worker{}, &worker{}
	for i := range a.windows {
		a.windows[i], b.windows[i] = 300, uint64(300+30*i)
	}
	rates := windowRates([]*worker{a, b}, 24)
	if rates[0] != 200 || rates[7] != 270 {
		t.Errorf("window rates = %v", rates)
	}
	if got, want := windowSpreadPct(rates), 100*70.0/235; math.Abs(got-want) > 1e-9 {
		t.Errorf("window spread = %v, want %v", got, want)
	}

	// The median is taken over both sessions' raw samples, not per session.
	a = &worker{txNs: []uint32{10000, 30000, 50000}}
	b = &worker{txNs: []uint32{20000, 70000, 90000, 95000}}
	if v, n := medianUs([]*worker{a, b}, func(w *worker) []uint32 { return w.txNs }); v != 50 || n != 7 {
		t.Errorf("median = %v us of %d samples, want 50 of 7", v, n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := txTrace{seq: 9, t0: 100, t1: 110, t2: 130, t3: 180, tw: 195, t4: 200, t5: 260, visEnd: 900}
	sp := spansOf(1, tr)
	if len(sp) != 7 || sp[0].Name != "tx" || sp[6].Name != "vis" || sp[6].Parent != "tx" {
		t.Fatalf("spans = %+v", sp)
	}
	for _, s := range sp {
		if s.Tx != 9 || s.Session != 1 {
			t.Errorf("span %s carries tx %d session %d", s.Name, s.Tx, s.Session)
		}
	}
	// tx is 160 long; gen+begin+read+write+commit cover 145; vis lies outside
	// and is clipped away: the 15 between read and write are tx's own.
	if got := selfTime(sp[0], sp[1:]); got != 15 {
		t.Errorf("tx self time = %d, want 15", got)
	}
	// Overlapping children count once.
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 50}, {Start: 40, End: 60}, {Start: 90, End: 150}, {Start: -5, End: 5}}
	if got := selfTime(parent, kids); got != 100-50-10-5 {
		t.Errorf("self time with overlaps = %d", got)
	}
	if got := selfTime(sp[1], nil); got != 10 {
		t.Errorf("leaf self time = %d", got)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := &result{
		Correct: true, Attempted: 12, Failed: 1, Workload: "mem-read",
		Metrics:  map[string]metricValue{"tx_p50_us": {Value: 46.987, Unit: "us", N: 539185}, "msgs_per_tx": {Value: 9.9951, Unit: "count"}},
		Env:      environment{Commit: "abc", GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 2, Seed: 3, Seconds: 20, LoadavgStart: 0.5},
		Windows:  []float64{1, 2},
		Problems: nil,
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Errorf("round trip changed the result:\n%+v\n%+v", res, &back)
	}

	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lastLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["unit"] == nil || m["value"] == nil {
			t.Errorf("metric %s is %v on the last line, want value and unit only", name, m)
		}
	}
}

// TestBenchmarkJSONMatchesTables holds the committed BENCHMARK.json to the
// tables in metrics.go and workload.go.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(doc, want) {
		t.Error("BENCHMARK.json differs from the tables in the code; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if runSeconds < 20 || runSeconds > 60 {
		t.Errorf("run_seconds = %d: the measured interval must stay between 20 s and the 60 s cap", runSeconds)
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.Name] {
			t.Errorf("metric %s is listed twice", s.Name)
		}
		seen[s.Name] = true
		hasSetup = hasSetup || s == metricSpec{Name: "setup_s", Unit: "s", Better: lower, Bound: s.Bound}
		if s.Better != lower && s.Better != higher {
			t.Errorf("metric %s: better = %q", s.Name, s.Better)
		}
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "tx_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	thr := metricSpec{Name: "tx_per_s", Unit: "tx/s", Better: higher, Bound: 0.10}
	tight := func(center float64) side {
		return summarise([]float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005, center})
	}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b side
		want string
	}{
		{"equal", lat, tight(100), tight(101), verdictSame},
		{"latency up 20%", lat, tight(100), tight(120), verdictWorse},
		{"latency down 20%", lat, tight(100), tight(80), verdictBetter},
		{"throughput down 20%", thr, tight(100), tight(80), verdictWorse},
		{"throughput up 20%", thr, tight(100), tight(120), verdictBetter},
		{"noisy side", lat, summarise([]float64{80, 100, 120, 90, 110, 100}), tight(120), verdictUnresolved},
		{"single run", lat, summarise([]float64{100}), tight(100), verdictUnresolved},
	} {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(thr, tight(100), tight(80)); math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("throughput 100 -> 80 is worse by %v, want 0.2", worse)
	}
}

func TestCompareUsage(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{nil, {"a.json"}, {"--", "b.json"}, {"a.json", "--"}} {
		if code := runCompare(args, &out); code != 2 {
			t.Errorf("runCompare(%v) = %d, want 2", args, code)
		}
	}
}

// TestSmoke runs every workload end to end at one second: the gated and the
// ungated metrics present and positive, the whole per-layer table present,
// nothing failed, and the history and read-back checks clean.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			o := smokeOptions(options{workload: w.Name, seed: 5, trace: traceBoth, out: t.TempDir()})
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, s := range compared() {
				if v, ok := res.Metrics[s.Name]; !ok || !(v.Value > 0) || v.Unit != s.Unit {
					t.Errorf("metric %s = %+v (present %v)", s.Name, v, ok)
				}
			}
			for _, s := range perLayer {
				if v, ok := res.Metrics[s.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v)", s.Name, v, ok)
				}
			}
			if info, err := os.Stat(res.SpanFile); err != nil || info.Size() == 0 {
				t.Errorf("span file %q: %v", res.SpanFile, err)
			}
		})
	}
}
