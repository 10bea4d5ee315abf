package main

// metricSpec is one row of BENCHMARK.json. The table below is the single
// definition of the metric set: BENCHMARK.json is printed from it (-spec) and
// a test holds the committed file to it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics, measured only with tracing off: the ones
// that repeat on a shared 2-core box, because timers and counts govern them and
// processor speed does not. Bounds are the share of the parent's median a later
// change may lose, and at least three times the widest spread seen over sets
// of ten runs outside a steal spell (README, "Measured spreads"): 6 % for
// visibility over TCP, 2.6 % for the counts on tcp-read, whose background
// traffic is per second and so follows throughput.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"vis_p50_ms", "ms", lower, 0.20},
	{"msgs_per_tx", "count", lower, 0.08},
	{"allocs_per_tx", "count", lower, 0.08},
}

// ungated are the other five metrics of the untraced interval. The first four
// follow the box's speed: on the three CPU-bound workloads a slow spell of the
// box moves them by 20–40 % for minutes, more than the widest bound a gate may
// have. The fifth is a tail, and a few percent of steal spread it by 8–9 %
// where the median held at 1–2 %. They are reported with the per-layer
// metrics and judged by -compare on alternating runs, where a spell hits both
// sides alike.
var ungated = []metricSpec{
	{Name: "tx_per_s", Unit: "tx/s", Better: higher},
	{Name: "tx_p50_us", Unit: "us", Better: lower},
	{Name: "read_p50_us", Unit: "us", Better: lower},
	{Name: "commit_p50_us", Unit: "us", Better: lower},
	{Name: "vis_p95_ms", Unit: "ms", Better: lower},
}

// perLayer are reported, never gated: throughput, latency, tails and CPU do
// not repeat on a small box. After the ungated metrics, the first block comes
// from the traced pass and the second from isolated probes.
var perLayer = append(ungated[:len(ungated):len(ungated)], []metricSpec{
	{Name: "client.begin_p50_us", Unit: "us", Better: lower},
	{Name: "client.read_p50_us", Unit: "us", Better: lower},
	{Name: "client.read_p99_us", Unit: "us", Better: lower},
	{Name: "client.commit_p50_us", Unit: "us", Better: lower},
	{Name: "client.commit_p99_us", Unit: "us", Better: lower},
	{Name: "client.tx_p50_us", Unit: "us", Better: lower},
	{Name: "client.tx_p99_us", Unit: "us", Better: lower},
	{Name: "client.tx_p999_us", Unit: "us", Better: lower},
	{Name: "client.gen_ns_per_tx", Unit: "ns", Better: lower},
	{Name: "client.cache_hit_share", Unit: "share", Better: higher},

	{Name: "transport.client_msgs_per_tx", Unit: "count", Better: lower},
	{Name: "transport.slice_msgs_per_tx", Unit: "count", Better: lower},
	{Name: "transport.twopc_msgs_per_tx", Unit: "count", Better: lower},
	{Name: "transport.repl_msgs_per_tx", Unit: "count", Better: lower},
	{Name: "transport.gossip_msgs_per_s", Unit: "1/s", Better: lower},
	{Name: "transport.envelopes_per_batch", Unit: "count", Better: higher},

	{Name: "server.slices_per_tx", Unit: "count", Better: lower},
	{Name: "server.prepares_per_tx", Unit: "count", Better: lower},
	{Name: "server.prepare_batch_mean", Unit: "count", Better: higher},
	{Name: "server.prep_pump_wakeups_per_tx", Unit: "count", Better: lower},
	{Name: "server.repl_items_per_batch", Unit: "count", Better: higher},
	{Name: "server.gossip_sent_per_s", Unit: "1/s", Better: lower},
	{Name: "server.gossip_suppressed_share", Unit: "share", Better: higher},
	{Name: "server.ust_lag_p50_ms", Unit: "ms", Better: lower},
	{Name: "server.ust_spread_ms", Unit: "ms", Better: lower},
	{Name: "server.aborted_per_ktx", Unit: "count", Better: lower},
	{Name: "server.read_failovers_per_ktx", Unit: "count", Better: lower},

	{Name: "store.versions_per_key", Unit: "count", Better: lower},
	{Name: "store.gc_removed_per_tx", Unit: "count", Better: lower},

	{Name: "proc.cpu_us_per_tx", Unit: "us", Better: lower},
	{Name: "proc.alloc_bytes_per_tx", Unit: "B", Better: lower},
	{Name: "proc.gc_cycles_per_s", Unit: "1/s", Better: lower},
	{Name: "proc.gc_pause_us_per_s", Unit: "us/s", Better: lower},
	{Name: "proc.heap_mb", Unit: "MB", Better: lower},
	{Name: "proc.window_spread_pct", Unit: "%", Better: lower},
	{Name: "proc.steal_pct", Unit: "%", Better: lower},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "proc.loadavg1", Unit: "count", Better: lower},

	{Name: "wire.encode_ns_readresp", Unit: "ns", Better: lower},
	{Name: "wire.decode_ns_readresp", Unit: "ns", Better: lower},
	{Name: "wire.encode_ns_replbatch", Unit: "ns", Better: lower},
	{Name: "wire.decode_ns_replbatch", Unit: "ns", Better: lower},
	{Name: "wire.bytes_readresp", Unit: "B", Better: lower},
	{Name: "wire.bytes_replbatch", Unit: "B", Better: lower},
	{Name: "wire.encode_allocs_replbatch", Unit: "count", Better: lower},

	{Name: "transport.memnet_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.memnet_delay_overshoot_us", Unit: "us", Better: lower},

	{Name: "server.start_tx_ns", Unit: "ns", Better: lower},
	{Name: "server.read_local_ns", Unit: "ns", Better: lower},
	{Name: "server.read_slice_ns", Unit: "ns", Better: lower},
	{Name: "server.prepare_ns", Unit: "ns", Better: lower},

	{Name: "store.read_ns", Unit: "ns", Better: lower},
	{Name: "store.apply_ns_per_item", Unit: "ns", Better: lower},
	{Name: "store.gc_ns_per_version", Unit: "ns", Better: lower},

	{Name: "hlc.now_ns", Unit: "ns", Better: lower},
	{Name: "topology.partition_of_ns", Unit: "ns", Better: lower},
}...)

// metricValue is one measured metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of raw samples behind a percentile (0 for counts and
	// rates); Q is the quantile actually read when the tail had to be lowered
	// to keep ten samples beyond it.
	N int     `json:"n,omitempty"`
	Q float64 `json:"q,omitempty"`
}

// metricSet collects values against a spec table and refuses names the table
// does not have, so a typo cannot add or drop a metric silently.
type metricSet struct {
	specs  map[string]metricSpec
	values map[string]metricValue
}

func newMetricSet(specs []metricSpec) *metricSet {
	m := &metricSet{specs: make(map[string]metricSpec, len(specs)), values: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		m.specs[s.Name] = s
	}
	return m
}

func (m *metricSet) set(name string, v float64) { m.setQ(name, v, 0, 0) }

func (m *metricSet) setQ(name string, v float64, n int, q float64) {
	spec, ok := m.specs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec table")
	}
	m.values[name] = metricValue{Value: v, Unit: spec.Unit, N: n, Q: q}
}

// missing lists spec names that have no value yet.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.specs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}
