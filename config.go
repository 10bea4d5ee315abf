package paris

import (
	"errors"
	"fmt"
	"time"

	"github.com/paris-kv/paris/internal/server"
	"github.com/paris-kv/paris/internal/transport"
)

// Mode selects the read-visibility protocol for a cluster.
type Mode = server.Mode

// Cluster modes.
const (
	// ModeNonBlocking is PaRiS: non-blocking reads from the UST-stable
	// snapshot (the paper's contribution).
	ModeNonBlocking = server.ModeNonBlocking
	// ModeBlocking is BPR, the paper's baseline: fresher snapshots, blocking
	// reads.
	ModeBlocking = server.ModeBlocking
)

// Config describes an embedded PaRiS deployment.
type Config struct {
	// NumDCs is M, the number of data centers (replication sites).
	NumDCs int
	// NumPartitions is N, the number of data partitions. Each partition is
	// hosted by one server per replica, so the paper's "machines per DC"
	// equals NumPartitions*ReplicationFactor/NumDCs.
	NumPartitions int
	// ReplicationFactor is R, the number of DCs storing each partition
	// (R < NumDCs gives partial replication). Default 2.
	ReplicationFactor int
	// Mode selects PaRiS or the BPR baseline. Default ModeNonBlocking.
	Mode Mode

	// Latency is the simulated network. Defaults to the paper's AWS
	// geography scaled by LatencyScale.
	Latency transport.LatencyModel
	// LatencyScale scales the default geography (ignored when Latency is
	// set). 1.0 is real AWS latency; tests and quick benches use smaller
	// values. Default 0.05.
	LatencyScale float64

	// ApplyInterval is ΔR, the length of a round: every server applies,
	// replicates, advances its version clock and starts its stabilization
	// push at the wall-clock multiples of ΔR, so rounds begin together
	// everywhere. Use whole milliseconds. Default 5ms·scale, floor 1ms.
	ApplyInterval time.Duration
	// BatchMaxItems caps the write items coalesced into one replication
	// batch per destination per ΔR round. 0 or negative selects the default
	// (1024).
	BatchMaxItems int
	// BatchMaxBytes caps the approximate encoded payload bytes per
	// replication batch chunk. 0 or negative selects the default (1 MiB).
	BatchMaxBytes int
	// BandwidthBudget, when positive, enables per-destination replication
	// flow control on every server: outbound replication traffic toward
	// each peer replica is paced to this many bytes/second by a token
	// bucket, send queues are bounded by FlowHighWater, and a destination
	// whose queue crosses the bound degrades to summary/heartbeat-only mode
	// (its receiver's version-vector entry stops advancing — UST-safe)
	// until the queue drains below FlowLowWater. 0 disables flow control.
	BandwidthBudget int
	// BudgetBurst is the flow-control token bucket's burst capacity in
	// bytes. 0 selects BandwidthBudget/4, floored at 4 KiB.
	BudgetBurst int
	// FlowHighWater bounds the bytes queued toward one replication
	// destination before the sender degrades. 0 selects the default
	// (4 MiB). Keep it a few multiples of BatchMaxBytes.
	FlowHighWater int
	// FlowLowWater is the queue depth below which a degraded destination
	// resumes normal sends. 0 selects FlowHighWater/4.
	FlowLowWater int
	// GossipInterval is ΔG, the spacing of a server's stabilization pushes
	// up its DC's tree and between DC roots, rounded up to whole rounds (one
	// push every ⌈ΔG/ΔR⌉-th round). Default like ApplyInterval: every round.
	GossipInterval time.Duration
	// USTInterval is ΔU, the spacing of a root's UST computations, rounded
	// up to whole rounds like GossipInterval. Default like ApplyInterval.
	USTInterval time.Duration
	// GossipIdleMax spaces the stabilization pushes of a server that has
	// seen no data activity for a while: one per GossipIdleMax instead of
	// one per round, until the next write. 0 selects 32×GossipInterval; a
	// value at or below GossipInterval means the plane never goes quiet.
	GossipIdleMax time.Duration
	// GCInterval is the version garbage-collection cadence. 0 disables GC.
	GCInterval time.Duration
	// TxContextTTL bounds abandoned coordinator contexts, measured from the
	// context's last read/commit activity. Default 30s.
	TxContextTTL time.Duration
	// CallTimeout bounds each coordinator→cohort round trip (prepares and
	// remote slice reads). Default 60s; failure tests shrink it so downed
	// replicas are detected quickly.
	CallTimeout time.Duration
	// PreparedTTL bounds how long a cohort keeps a prepared transaction
	// without a commit/abort decision before reaping it (a crashed
	// coordinator's orphans would otherwise freeze the UST system-wide).
	// 0 selects the default (2×CallTimeout); negative disables the reaper.
	PreparedTTL time.Duration
	// ApplyWorkers bounds the goroutines applying one ΔR round's writes to
	// the local store in parallel. 0 selects the default
	// (min(GOMAXPROCS, 8)); 1 forces serial apply.
	ApplyWorkers int

	// ClockSkew, when positive, gives each server a fixed clock offset drawn
	// uniformly from [-ClockSkew, +ClockSkew], emulating imperfect NTP
	// synchronization.
	ClockSkew time.Duration
	// Seed makes skew assignment (and any other randomized setup)
	// reproducible. Default 1.
	Seed int64

	// VisibilitySample records every k-th applied version for update
	// visibility measurement (Fig. 4); 0 disables tracking.
	VisibilitySample int

	// Resolvers assigns conflict-resolution mechanisms to key prefixes
	// (longest prefix wins); keys with no matching prefix use
	// last-writer-wins. See ResolverKind.
	Resolvers map[string]ResolverKind

	// PreferNearestReplica routes remote operations to the geographically
	// closest replica instead of the round-robin preferred one (§IV-B:
	// "Remote DCs can be chosen depending on geographical proximity or on
	// some load balancing scheme"). It requires the default geographic
	// latency model (ignored when a custom Latency is supplied).
	PreferNearestReplica bool
}

// DefaultConfig returns the paper's default deployment shape (§V-A): 5 DCs,
// 45 partitions, replication factor 2 — 18 partition replicas ("machines")
// per DC — at 5% of real AWS latency.
func DefaultConfig() Config {
	return Config{
		NumDCs:            5,
		NumPartitions:     45,
		ReplicationFactor: 2,
		Mode:              ModeNonBlocking,
		LatencyScale:      0.05,
		GCInterval:        100 * time.Millisecond,
	}
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.NumDCs <= 0 || cfg.NumPartitions <= 0 {
		return cfg, errors.New("paris: NumDCs and NumPartitions must be positive")
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 2
	}
	if cfg.ReplicationFactor < 1 || cfg.ReplicationFactor > cfg.NumDCs {
		return cfg, fmt.Errorf("paris: replication factor %d outside [1,%d]",
			cfg.ReplicationFactor, cfg.NumDCs)
	}
	if cfg.NumPartitions < cfg.NumDCs {
		// Round-robin placement leaves a DC with no partitions otherwise;
		// a DC without servers cannot take part in the UST exchange.
		return cfg, fmt.Errorf("paris: need at least one partition per DC (%d < %d)",
			cfg.NumPartitions, cfg.NumDCs)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeNonBlocking
	}
	if cfg.LatencyScale <= 0 {
		cfg.LatencyScale = 0.05
	}
	if cfg.Latency == nil {
		cfg.Latency = transport.NewGeoModel(cfg.NumDCs, cfg.LatencyScale)
	}
	if cfg.ApplyInterval <= 0 {
		cfg.ApplyInterval = scaledInterval(cfg.LatencyScale)
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = scaledInterval(cfg.LatencyScale)
	}
	if cfg.USTInterval <= 0 {
		cfg.USTInterval = scaledInterval(cfg.LatencyScale)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg, nil
}

// scaledInterval shrinks the paper's 5ms stabilization cadence alongside the
// latency scale so the ratio of staleness to round-trip time is preserved,
// with a 1ms floor to keep timer pressure sane.
func scaledInterval(scale float64) time.Duration {
	d := time.Duration(float64(5*time.Millisecond) * scale * 4)
	if d < time.Millisecond {
		return time.Millisecond
	}
	if d > 5*time.Millisecond {
		return 5 * time.Millisecond
	}
	return d
}
