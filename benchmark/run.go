package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/paris-kv/paris/internal/check"
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/topology"
)

// gitCommit names the commit of the repository the benchmark runs in. It
// looks for the repository's root (the directory holding BENCHMARK.json) in
// the working directory and its parent only, and asks git only when that root
// is a clone: an exported tree is not a repository, and the search must not
// wander above it.
func gitCommit() string {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
			break
		}
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// maxCalmStealPct is the steal share above which a run says it was disturbed.
// A calm interval reads 0–1 %; at 5 % mem-write had lost a sixth of its
// throughput, and spells of 25–75 % last for many minutes on this box.
const maxCalmStealPct = 3

// cluster is a set-up deployment with its two load sessions.
type cluster struct {
	dep     deployment
	workers []*worker
	closed  bool
}

func (c *cluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.workers {
		w.sess.close()
	}
	c.dep.close()
}

// setUp is what setup_s times: build the cluster, open the load sessions,
// preload every key in 50-write transactions through a session homed at a
// replica of the key's partition, wait until every server's UST covers the
// last preload commit, then read 100 keys back and verify them.
func setUp(w workload, seed int64, ks *keyspace, zipf *zipfTable) (*cluster, error) {
	dep, err := newDeployment(w)
	if err != nil {
		return nil, err
	}
	c := &cluster{dep: dep}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	topo := dep.topology()
	for i := 0; i < numSessions; i++ {
		dc := topology.DCID(i)
		sess, err := dep.newSession(dc, topo.PartitionsAt(dc)[0])
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, &worker{id: i, sess: sess, gen: newGenerator(w, topo, ks, zipf, i, dc, seed)})
	}

	ctx := context.Background()
	var lastCT hlc.Timestamp
	for p, pool := range ks.pools {
		part := topology.PartitionID(p)
		loader, err := dep.newSession(topo.ReplicaDCs(part)[0], part)
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(pool); lo += 50 {
			tx, err := loader.begin(ctx)
			if err != nil {
				loader.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
			for _, k := range pool[lo:min(lo+50, len(pool))] {
				_ = tx.Write(k, preloadValue(k)) // Write fails only outside a transaction
			}
			ct, err := tx.Commit(ctx)
			if err != nil {
				loader.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
			lastCT = max(lastCT, ct)
		}
		loader.close()
	}
	if err := waitUST(dep.servers(), lastCT, 30*time.Second); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 0, 100)
	seen := make(map[string]bool)
	for len(keys) < cap(keys) {
		k := ks.pools[rng.Intn(len(ks.pools))][rng.Intn(len(ks.pools[0]))]
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	tx, err := c.workers[0].sess.begin(ctx)
	if err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	vals, err := tx.Read(ctx, keys...)
	if err == nil {
		_, err = tx.Commit(ctx)
	} else {
		tx.Abandon()
	}
	if err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	for _, k := range keys {
		if string(vals[k]) != string(preloadValue(k)) {
			return nil, fmt.Errorf("set-up verification: key %q read back %x, want %x", k, vals[k], preloadValue(k))
		}
	}
	ok = true
	return c, nil
}

// run executes one benchmark run. An error means the run could not be carried
// out; a run that was carried out and found the system wrong returns a result
// with Correct false.
func run(o options) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace == traceOnly {
		o.setups = 1
	}
	res := &result{
		Workload: w.Name,
		Metrics:  make(map[string]metricValue),
		Env: environment{
			Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: o.seed, Seconds: o.seconds.Seconds(), WarmupSeconds: o.warmup.Seconds(), TracedSeconds: o.traced.Seconds(),
			Setups: o.setups, Trace: o.trace, LoadavgStart: loadavg1(),
		},
	}
	began := time.Now()
	progress := func(what string) {
		fmt.Fprintf(os.Stderr, "benchmark: %6.1fs  %s\n", time.Since(began).Seconds(), what)
	}
	if res.Env.LoadavgStart > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: loadavg1 %.2f is above nproc/2 before the run; the box is busy and the numbers will show it\n", res.Env.LoadavgStart)
	}

	topo, err := topology.New(numDCs, numPartitions, replication)
	if err != nil {
		return nil, err
	}
	ks := newKeyspace(topo, keysPerPartition)
	zipf := newZipfTable(keysPerPartition, zipfTheta)

	var c *cluster
	setupSecs := make([]float64, o.setups)
	for i := range setupSecs {
		if c != nil {
			c.close()
			runtime.GC()
		}
		t0 := time.Now()
		if c, err = setUp(w, o.seed, ks, zipf); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs[i] = time.Since(t0).Seconds()
	}
	progress(fmt.Sprintf("set up %d times", o.setups))
	defer c.close()

	// Warm-up fills caches and grows the heap, and its rate sizes the sample
	// memory so the measured interval does not reallocate it.
	perWorker := 1 << 16
	if o.warmup > 0 {
		drive(c.dep, c.workers, o.warmup, false, 0, 0)
		rate := 0.0
		for _, wk := range c.workers {
			rate = max(rate, float64(wk.committed())/o.warmup.Seconds())
		}
		perWorker = int(rate*1.5) + 1024 // per second of interval
	}
	progress("warmed up")
	sampleCap := func(d time.Duration) int { return int(float64(perWorker)*d.Seconds()) + 1024 }
	runtime.GC()

	e2e := newMetricSet(endToEnd)
	layers := newMetricSet(perLayer)
	var problems []string
	note := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	tally := func(what string) {
		for _, wk := range c.workers {
			res.Attempted += wk.attempted
			res.Failed += wk.failed
			if wk.wrong > 0 {
				note("%s: session %d: %d transactions returned wrong results, first: %v", what, wk.id, wk.wrong, wk.firstErr)
			} else if wk.failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: session %d: %d of %d transactions failed, first: %v\n", what, wk.id, wk.failed, wk.attempted, wk.firstErr)
			}
		}
	}

	// A per-layer-only run still measures an untraced interval, as long as the
	// traced pass, on the same cluster moments earlier: the ungated metrics come
	// from it and tracing's overhead is stated against it. Its gated metrics,
	// from one set-up and a short interval, are not reported.
	interval := o.seconds
	if o.trace == traceOnly {
		interval = min(o.seconds, o.traced)
	}
	ph := drive(c.dep, c.workers, interval, false, sampleCap(interval), 0)
	tally("untraced interval")
	progress("measured, tracing off")
	untracedMetrics(e2e, layers, ph, c.workers, median(setupSecs), res)
	if steal := layers.values["proc.steal_pct"].Value; steal > maxCalmStealPct {
		res.Notes = append(res.Notes, fmt.Sprintf("the hypervisor took %.0f%% of the box's processor time during the untraced interval: every time in this run is the host's, not the program's", steal))
	}

	if o.trace != traceOff {
		pass := drive(c.dep, c.workers, o.traced, true, sampleCap(o.traced), max(checkedTxs/o.scale, 100))
		tally("traced pass")
		progress("traced pass done")
		attachVis(c.workers, pass.vis)
		tracedLayerMetrics(layers, pass, c, res)

		if res.SpanFile, err = writeTrace(o.out, w.Name, c.workers); err != nil {
			return nil, err
		}
		progress("spans written")
		checked, violations := checkHistory(c.workers)
		problems = append(problems, violations...)
		progress(fmt.Sprintf("history of %d transactions checked", checked))
	}

	if err := verifyLastWrites(c.dep, c.workers); err != nil {
		note("final read-back: %v", err)
	}
	c.close()

	if o.trace != traceOff {
		runtime.GC()
		if err := runProbes(layers, o.seed, o.scale); err != nil {
			return nil, err
		}
		layers.set("proc.loadavg1", loadavg1())
		progress("layer probes done")
		if missing := layers.missing(); len(missing) > 0 {
			sort.Strings(missing)
			return nil, fmt.Errorf("per-layer metrics not measured: %s", strings.Join(missing, ", "))
		}
	}
	for name, v := range layers.values {
		res.Metrics[name] = v
	}
	if o.trace != traceOnly {
		if missing := e2e.missing(); len(missing) > 0 {
			return nil, fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", "))
		}
		for name, v := range e2e.values {
			res.Metrics[name] = v
			if v.Value <= 0 {
				note("end-to-end metric %s is %v: nothing was measured", name, v.Value)
			}
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no transaction completed inside the measured interval")
	}
	res.Env.LoadavgEnd = loadavg1()
	res.Problems = problems
	res.Correct = len(problems) == 0
	return res, nil
}

// writeTrace writes the traced pass's spans to spans-<workload>.jsonl in dir.
// One file per workload, overwritten by the next run: a pass writes tens of
// megabytes and nobody clears a temp directory.
func writeTrace(dir, workload string, workers []*worker) (string, error) {
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "paris-benchmark")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	if _, err := writeSpans(path, workers); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// checkHistory runs internal/check over the transactions the traced pass
// recorded and returns how many there were and what is wrong with them.
func checkHistory(workers []*worker) (checked int, problems []string) {
	var hist check.History
	for _, w := range workers {
		for _, tx := range w.history {
			hist.Add(tx)
		}
	}
	if hist.Len() == 0 {
		return 0, []string{"traced pass recorded no transaction to check"}
	}
	violations := hist.Check()
	for i, v := range violations {
		if i == 5 {
			problems = append(problems, fmt.Sprintf("... and %d more consistency violations", len(violations)-i))
			break
		}
		problems = append(problems, fmt.Sprintf("consistency violation: %v", v))
	}
	return hist.Len(), problems
}
