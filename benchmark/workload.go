package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/paris-kv/paris/internal/topology"
)

// The deployment every workload runs on: partial replication with each DC
// holding 4 of the 6 partitions, so both local and remote partitions exist
// for every session.
const (
	numDCs           = 3
	numPartitions    = 6
	replication      = 2
	keysPerPartition = 10000
	zipfTheta        = 0.99
	valueSize        = 8
	stabilization    = 5 * time.Millisecond // ΔR = ΔG = ΔU
	gcInterval       = 100 * time.Millisecond
	wanOneWay        = 5 * time.Millisecond // wan-remote: 10 ms RTT between DCs
	numSessions      = 2                    // closed loop: one caller in DC 0, one in DC 1
)

// workload is one traffic mix on one transport. Every transaction has 20
// operations (§V-A of the paper): one Read call carrying all the reads, the
// writes, one Commit.
type workload struct {
	Name string
	Why  string

	reads, writes int
	// parts is how many distinct partitions one transaction touches; local
	// draws them from the partitions the session's DC replicates, otherwise
	// from the whole system.
	parts int
	local bool
	tcp   bool
	wan   bool // inject wanOneWay between DCs
	// visEvery samples one committed update in visEvery for visibility.
	visEvery int
}

var workloads = []workload{
	{
		Name:  "mem-read",
		Why:   "95:5 mix on one local partition over zero-latency MemNet: client-coordinator hand-offs, handleRead and MVStore.Read do the work; the codec never runs",
		reads: 19, writes: 1, parts: 1, local: true, visEvery: 16,
	},
	{
		Name:  "mem-write",
		Why:   "50:50 mix over 4 local partitions on MemNet: read fan-out, 2PC to 4 cohorts, prepare pump, apply rounds and replication batches dominate",
		reads: 10, writes: 10, parts: 4, local: true, visEvery: 16,
	},
	{
		Name:  "tcp-read",
		Why:   "mem-read's mix over loopback TCP: wire encode/decode, framing and syscalls dominate while server logic is unchanged",
		reads: 19, writes: 1, parts: 1, local: true, tcp: true, visEvery: 16,
	},
	{
		Name:  "wan-remote",
		Why:   "16:4 mix over 4 partitions of the whole system with 10 ms RTT between DCs: latency counts sequential WAN round trips, visibility counts gossip hops",
		reads: 16, writes: 4, parts: 4, visEvery: 1, wan: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyspace holds, per partition, keysPerPartition keys that hash to it, in
// enumeration order; a zipf rank indexes the pool, so rank 0 is the hottest
// key of its partition. The production key→partition hash stays untouched.
type keyspace struct {
	pools [][]string
}

func newKeyspace(topo *topology.Topology, perPartition int) *keyspace {
	ks := &keyspace{pools: make([][]string, topo.NumPartitions())}
	for p := range ks.pools {
		ks.pools[p] = make([]string, 0, perPartition)
	}
	for i, remaining := 0, topo.NumPartitions()*perPartition; remaining > 0; i++ {
		key := "k" + strconv.Itoa(i)
		if p := topo.PartitionOf(key); len(ks.pools[p]) < perPartition {
			ks.pools[p] = append(ks.pools[p], key)
			remaining--
		}
	}
	return ks
}

// preloadValue is the value set-up writes for a key; the read-back check and
// the load's read check both know it without storing 60 000 values.
func preloadValue(key string) []byte {
	h := fnv.New64a()
	h.Write([]byte(key))
	return binary.LittleEndian.AppendUint64(make([]byte, 0, valueSize), h.Sum64())
}

// zipfTable draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^θ by Vose's alias method: exact, one random number and at most two
// table reads per draw. The generator runs inside the closed loop, so its cost
// dilutes every throughput change; a binary search over the CDF cost 4 µs per
// transaction, a tenth of mem-read's latency.
type zipfTable struct {
	prob  []float64
	alias []int32
}

func newZipfTable(n int, theta float64) *zipfTable {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), theta)
		sum += weights[i]
	}
	z := &zipfTable{prob: make([]float64, n), alias: make([]int32, n)}
	var small, large []int32
	for i := range weights {
		weights[i] *= float64(n) / sum
		if weights[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		z.prob[s], z.alias[s] = weights[s], l
		weights[l] -= 1 - weights[s]
		if weights[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) { // leftovers are 1 up to rounding
		z.prob[i], z.alias[i] = 1, i
	}
	return z
}

func (z *zipfTable) draw(rng *rand.Rand) int {
	u := rng.Float64() * float64(len(z.prob))
	i := min(int(u), len(z.prob)-1)
	if u-float64(i) < z.prob[i] {
		return i
	}
	return int(z.alias[i])
}

// plan is one transaction's inputs. The key slices are reused between
// transactions; vals is fresh every time because MemNet passes messages by
// reference and the store keeps the value slice.
type plan struct {
	reads  []string
	writes []string
	vals   [][]byte
	parts  []topology.PartitionID // the distinct partitions touched
}

// generator produces one session's plans from its seed alone: the system under
// test sees only the generated keys and values.
type generator struct {
	w       workload
	ks      *keyspace
	zipf    *zipfTable
	rng     *rand.Rand
	cand    []topology.PartitionID // partitions a transaction may draw from
	session int
	seq     uint64
	plan    plan
	seen    []uint32 // (partition, rank) codes drawn so far in this transaction
}

func newGenerator(w workload, topo *topology.Topology, ks *keyspace, zipf *zipfTable, session int, dc topology.DCID, seed int64) *generator {
	g := &generator{
		w: w, ks: ks, zipf: zipf, session: session,
		rng: rand.New(rand.NewSource(seed + 7919*int64(session))),
	}
	if w.local {
		g.cand = topo.PartitionsAt(dc)
	} else {
		for p := 0; p < topo.NumPartitions(); p++ {
			g.cand = append(g.cand, topology.PartitionID(p))
		}
	}
	g.plan = plan{
		reads:  make([]string, w.reads),
		writes: make([]string, w.writes),
		vals:   make([][]byte, w.writes),
		parts:  make([]topology.PartitionID, w.parts),
	}
	return g
}

// next fills and returns the generator's plan. Operations are dealt round-robin
// over the transaction's partitions, so wan-remote's 4 writes land one per
// partition; keys are distinct within the reads and within the writes.
func (g *generator) next() *plan {
	// Partial Fisher–Yates: the first w.parts entries become the draw.
	for i := 0; i < g.w.parts; i++ {
		j := i + g.rng.Intn(len(g.cand)-i)
		g.cand[i], g.cand[j] = g.cand[j], g.cand[i]
		g.plan.parts[i] = g.cand[i]
	}
	g.seen = g.seen[:0]
	for i := range g.plan.reads {
		g.plan.reads[i] = g.draw(g.plan.parts[i%g.w.parts])
	}
	g.seen = g.seen[:0]
	buf := make([]byte, valueSize*g.w.writes)
	for i := range g.plan.writes {
		g.plan.writes[i] = g.draw(g.plan.parts[i%g.w.parts])
		g.seq++
		v := buf[i*valueSize : (i+1)*valueSize : (i+1)*valueSize]
		binary.LittleEndian.PutUint64(v, uint64(g.session)<<56|g.seq)
		g.plan.vals[i] = v
	}
	return &g.plan
}

// draw picks a zipf-ranked key of partition p not yet drawn in this pass.
func (g *generator) draw(p topology.PartitionID) string {
	for {
		rank := g.zipf.draw(g.rng)
		code := uint32(p)*uint32(len(g.zipf.prob)) + uint32(rank)
		dup := false
		for _, s := range g.seen {
			if s == code {
				dup = true
				break
			}
		}
		if !dup {
			g.seen = append(g.seen, code)
			return g.ks.pools[p][rank]
		}
	}
}
