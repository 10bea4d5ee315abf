package main

import (
	"fmt"

	"github.com/paris-kv/paris/internal/wire"
)

// windowRates is each window's committed transactions per second, summed over
// the sessions. Only proc.window_spread_pct reads it: every other metric is
// taken over the whole interval.
func windowRates(workers []*worker, seconds float64) []float64 {
	rates := make([]float64, numWindows)
	for _, w := range workers {
		for k, n := range w.windows {
			rates[k] += float64(n) / (seconds / numWindows)
		}
	}
	return rates
}

// committedBy sums the sessions' committed transactions.
func committedBy(workers []*worker) uint64 {
	var n uint64
	for _, w := range workers {
		n += w.committed()
	}
	return n
}

// medianUs is the exact median, in microseconds, of one latency sample set
// over both sessions, and the number of samples it was read from.
func medianUs(workers []*worker, pick func(*worker) []uint32) (float64, int) {
	var all []uint32
	for _, w := range workers {
		all = append(all, pick(w)...)
	}
	return float64(quantile(sortedCopy(all), 0.5)) / 1e3, len(all)
}

// untracedMetrics derives everything the untraced interval yields: the gated
// metrics into e2e; into layers the ungated ones and the two that say how much
// the box disturbed the interval.
func untracedMetrics(e2e, layers *metricSet, ph phase, workers []*worker, setupS float64, res *result) {
	committed := float64(committedBy(workers))
	res.Windows = windowRates(workers, ph.seconds)
	layers.set("proc.window_spread_pct", windowSpreadPct(res.Windows))
	layers.set("proc.steal_pct", stealPct(ph.before.host, ph.after.host))
	layers.set("tx_per_s", committed/ph.seconds)
	for name, pick := range map[string]func(*worker) []uint32{
		"tx_p50_us":     func(w *worker) []uint32 { return w.txNs },
		"read_p50_us":   func(w *worker) []uint32 { return w.readNs },
		"commit_p50_us": func(w *worker) []uint32 { return w.commitNs },
	} {
		v, n := medianUs(workers, pick)
		layers.setQ(name, v, n, 0)
	}

	vis := make([]float64, len(ph.vis))
	for i, d := range ph.vis {
		vis[i] = float64(d.end-d.at) / 1e6
	}
	if ph.visDropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d visibility samples were dropped: the watcher fell behind", ph.visDropped))
	}
	vis = sortedCopy(vis)
	e2e.setQ("vis_p50_ms", quantile(vis, 0.5), len(vis), 0)
	layers.setQ("vis_p95_ms", quantile(vis, 0.95), len(vis), 0)

	e2e.set("setup_s", setupS)
	e2e.set("msgs_per_tx", ratio(float64(ph.after.msgs-ph.before.msgs), committed))
	e2e.set("allocs_per_tx", ratio(float64(ph.after.mem.Mallocs-ph.before.mem.Mallocs), committed))
}

// tracedLayerMetrics fills the traced-pass half of the per-layer table from
// the spans and from the public counters' deltas over the pass.
func tracedLayerMetrics(m *metricSet, ph phase, c *cluster, res *result) {
	n := float64(committedBy(c.workers))
	all := func(dur func(txTrace) int64) []uint32 {
		var out []uint32
		for _, w := range c.workers {
			out = append(out, spanNs(w, dur)...)
		}
		return sortedCopy(out)
	}
	p50 := func(sorted []uint32) float64 { return float64(quantile(sorted, 0.5)) / 1e3 }
	tail := func(name string, sorted []uint32, q float64) {
		v, used := tailQuantile(sorted, q)
		m.setQ(name, float64(v)/1e3, len(sorted), used)
	}
	reads, commits, txs := all(readNs), all(commitNs), all(txNs)
	beginP50, readP50, commitP50, txP50 := p50(all(beginNs)), p50(reads), p50(commits), p50(txs)
	m.setQ("client.begin_p50_us", beginP50, len(txs), 0)
	m.setQ("client.read_p50_us", readP50, len(txs), 0)
	tail("client.read_p99_us", reads, 0.99)
	m.setQ("client.commit_p50_us", commitP50, len(txs), 0)
	tail("client.commit_p99_us", commits, 0.99)
	m.setQ("client.tx_p50_us", txP50, len(txs), 0)
	tail("client.tx_p99_us", txs, 0.99)
	tail("client.tx_p999_us", txs, 0.999)
	// The median, not the mean: a session preempted inside the generator would
	// otherwise charge the scheduler's time to it.
	m.setQ("client.gen_ns_per_tx", float64(quantile(all(genNs), 0.5)), len(txs), 0)
	res.Notes = append(res.Notes,
		fmt.Sprintf("traced begin+read+commit p50 = %.1f us, %.0f%% of the traced tx p50",
			beginP50+readP50+commitP50, 100*ratio(beginP50+readP50+commitP50, txP50)),
		fmt.Sprintf("tx span self time p50 = %.2f us (value check and history recording between read and write)",
			float64(quantile(all(txSelfNs), 0.5))/1e3))
	var fromCache, keysRead uint64
	for _, w := range c.workers {
		a, b := w.statsBefore, w.statsAfter
		fromCache += b.KeysFromWS + b.KeysFromRS + b.KeysFromWC - a.KeysFromWS - a.KeysFromRS - a.KeysFromWC
		keysRead += b.KeysRead - a.KeysRead
	}
	m.set("client.cache_hit_share", ratio(float64(fromCache), float64(keysRead)))

	kinds := func(ks ...wire.Kind) float64 {
		var d uint64
		for _, k := range ks {
			d += ph.after.sent.byKind[k] - ph.before.sent.byKind[k]
		}
		return float64(d)
	}
	m.set("transport.client_msgs_per_tx", kinds(wire.KindStartTxReq, wire.KindStartTxResp, wire.KindReadReq, wire.KindReadResp,
		wire.KindCommitReq, wire.KindCommitResp, wire.KindFinishTx)/n)
	m.set("transport.slice_msgs_per_tx", kinds(wire.KindReadSliceReq, wire.KindReadSliceResp)/n)
	m.set("transport.twopc_msgs_per_tx", kinds(wire.KindPrepareReq, wire.KindPrepareResp, wire.KindPrepareBatch, wire.KindPrepareBatchResp,
		wire.KindCohortCommit, wire.KindAbortTx, wire.KindTxStatusReq, wire.KindTxStatusResp, wire.KindCommitRecover)/n)
	m.set("transport.repl_msgs_per_tx", kinds(wire.KindReplicate, wire.KindReplicateBatch, wire.KindHeartbeat,
		wire.KindReplSyncReq, wire.KindReplSyncResp, wire.KindReplStatus)/n)
	m.set("transport.gossip_msgs_per_s", kinds(wire.KindGSTUp, wire.KindGSTRoot, wire.KindUSTDown)/ph.seconds)
	m.set("transport.envelopes_per_batch", ratio(
		float64(ph.after.sent.batchedEnvs-ph.before.sent.batchedEnvs), float64(ph.after.sent.batches-ph.before.sent.batches)))

	s0, s1 := ph.before.srv, ph.after.srv
	d := func(a, b uint64) float64 { return float64(b - a) }
	m.set("server.slices_per_tx", d(s0.slices, s1.slices)/n)
	m.set("server.prepares_per_tx", d(s0.prepares, s1.prepares)/n)
	m.set("server.prepare_batch_mean", ratio(d(s0.prepBatched, s1.prepBatched), d(s0.prepBatches, s1.prepBatches)))
	m.set("server.prep_pump_wakeups_per_tx", d(s0.pumpWakeups, s1.pumpWakeups)/n)
	m.set("server.repl_items_per_batch", ratio(d(s0.replItems, s1.replItems), d(s0.replBatches, s1.replBatches)))
	m.set("server.gossip_sent_per_s", d(s0.gossipSent, s1.gossipSent)/ph.seconds)
	m.set("server.gossip_suppressed_share", ratio(d(s0.gossipSuppressed, s1.gossipSuppressed),
		d(s0.gossipSuppressed, s1.gossipSuppressed)+d(s0.gossipSent, s1.gossipSent)))
	m.setQ("server.ust_lag_p50_ms", quantile(sortedCopy(ph.lagMs), 0.5), len(ph.lagMs), 0)
	m.setQ("server.ust_spread_ms", quantile(sortedCopy(ph.spreadMs), 0.5), len(ph.spreadMs), 0)
	m.set("server.aborted_per_ktx", 1000*d(s0.aborted, s1.aborted)/n)
	m.set("server.read_failovers_per_ktx", 1000*d(s0.readFailovers, s1.readFailovers)/n)

	var versions, keys int
	for _, srv := range c.dep.servers() {
		versions += srv.Store().Versions()
		keys += srv.Store().Keys()
	}
	m.set("store.versions_per_key", ratio(float64(versions), float64(keys)))
	m.set("store.gc_removed_per_tx", d(s0.gcRemoved, s1.gcRemoved)/n)

	m0, m1 := &ph.before.mem, &ph.after.mem
	m.set("proc.cpu_us_per_tx", float64(ph.after.cpuNs-ph.before.cpuNs)/1e3/n)
	m.set("proc.alloc_bytes_per_tx", d(m0.TotalAlloc, m1.TotalAlloc)/n)
	m.set("proc.gc_cycles_per_s", float64(m1.NumGC-m0.NumGC)/ph.seconds)
	m.set("proc.gc_pause_us_per_s", d(m0.PauseTotalNs, m1.PauseTotalNs)/1e3/ph.seconds)
	m.set("proc.heap_mb", float64(m1.HeapAlloc)/(1<<20))
	m.set("proc.trace_overhead_pct", 100*(1-ratio(n/ph.seconds, m.values["tx_per_s"].Value)))
}
