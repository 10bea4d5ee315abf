// Package store implements the multi-version key-value storage engine each
// partition server uses (§II-C: "We assume a multi-version data store. An
// update operation creates a new version of a key."). Versions of a key form
// a chain ordered by the total order (ut, idT, sr); snapshot reads return the
// freshest version within the snapshot, and garbage collection trims versions
// older than the system-wide oldest active snapshot.
package store

import (
	"strings"
	"sync"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// numShards spreads keys over independent locks; it must be a power of two
// no larger than 256 (ApplyBatch packs shard indices into uint8).
const numShards = 64

var _ = [1]struct{}{}[(numShards-1)>>8] // compile-time: numShards ≤ 256

// MVStore is a sharded multi-version store. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
//
// Chains are kept in ascending (oldest → newest) order: commits on a
// partition mostly arrive in timestamp order, so the common insert is an
// O(1) amortized append at the tail, and snapshot reads scan backwards from
// the tail.
type MVStore struct {
	shards [numShards]shard
}

type shard struct {
	mu     sync.RWMutex
	chains map[string][]wire.Item // ascending (ut, txid, sr) order
}

// New returns an empty store.
func New() *MVStore {
	s := &MVStore{}
	for i := range s.shards {
		s.shards[i].chains = make(map[string][]wire.Item)
	}
	return s
}

func shardIndex(key string) uint64 {
	// FNV-1a, inlined to avoid allocating a hasher per access.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h & (numShards - 1)
}

func (s *MVStore) shardFor(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// Apply inserts a version into its key's chain, keeping the chain sorted by
// the (UT, TxID, SrcDC) total order. Re-applying an identical version is a
// no-op, making replication delivery idempotent.
func (s *MVStore) Apply(item wire.Item) {
	sh := s.shardFor(item.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.apply(item)
}

// ApplyBatch inserts every item, acquiring each involved shard's lock exactly
// once regardless of how many items land on it — the single store pass the
// batched replication receive path relies on. Items destined for the same
// shard are applied in slice order, so a batch listing versions in (UT, TxID,
// SrcDC) order hits the O(1) append fast path throughout.
func (s *MVStore) ApplyBatch(items []wire.Item) {
	switch len(items) {
	case 0:
		return
	case 1:
		s.Apply(items[0])
		return
	}
	// Group item indices by shard with a stable counting sort (one hash per
	// item, no per-shard rescans), so each shard's write lock is held only
	// for the items that actually land on it.
	idx := make([]uint8, len(items))
	var counts [numShards]int32
	for i := range items {
		si := shardIndex(items[i].Key)
		idx[i] = uint8(si)
		counts[si]++
	}
	var starts [numShards]int32
	sum := int32(0)
	for si := range counts {
		starts[si] = sum
		sum += counts[si]
	}
	order := make([]int32, len(items))
	next := starts
	for i := range items {
		si := idx[i]
		order[next[si]] = int32(i)
		next[si]++
	}
	for si := range counts {
		if counts[si] == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, i := range order[starts[si] : starts[si]+counts[si]] {
			sh.apply(items[i])
		}
		sh.mu.Unlock()
	}
}

// applyConcurrentMinItems is the batch size below which ApplyBatchConcurrent
// falls back to the serial single-pass ApplyBatch: spawning workers for a
// handful of items costs more than it saves.
const applyConcurrentMinItems = 64

// ApplyBatchConcurrent is ApplyBatch with the per-shard apply work fanned out
// over up to `workers` goroutines. Shards are disjoint, so workers never
// contend on a chain; each worker takes a contiguous run of shards from the
// same counting-sort grouping the serial path builds. The call returns only
// after every item has landed — callers that publish a version-clock bound
// after the batch (the ΔR apply loop) get the same store-then-publish
// ordering the serial path gives them, with the join acting as the round's
// sequencer.
func (s *MVStore) ApplyBatchConcurrent(items []wire.Item, workers int) {
	if workers <= 1 || len(items) < applyConcurrentMinItems {
		s.ApplyBatch(items)
		return
	}
	s.applyFannedOut(items, workers)
}

// applyFannedOut is ApplyBatchConcurrent's fan-out, kept out of its body: the
// worker goroutines capture its state, which moves that state to the heap on
// entry, and the serial fallback must not pay for that.
func (s *MVStore) applyFannedOut(items []wire.Item, workers int) {
	idx := make([]uint8, len(items))
	var counts [numShards]int32
	for i := range items {
		si := shardIndex(items[i].Key)
		idx[i] = uint8(si)
		counts[si]++
	}
	var starts [numShards]int32
	sum := int32(0)
	occupied := 0
	for si := range counts {
		starts[si] = sum
		sum += counts[si]
		if counts[si] > 0 {
			occupied++
		}
	}
	order := make([]int32, len(items))
	next := starts
	for i := range items {
		si := idx[i]
		order[next[si]] = int32(i)
		next[si]++
	}
	if workers > occupied {
		workers = occupied
	}
	// Deal occupied shards round-robin to workers: consecutive busy shards
	// land on different workers, which evens the load when traffic clusters.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			seen := 0
			for si := range counts {
				if counts[si] == 0 {
					continue
				}
				if seen%workers == w {
					sh := &s.shards[si]
					sh.mu.Lock()
					for _, i := range order[starts[si] : starts[si]+counts[si]] {
						sh.apply(items[i])
					}
					sh.mu.Unlock()
				}
				seen++
			}
		}(w)
	}
	wg.Wait()
}

// apply inserts one version; the caller holds sh.mu. A decoded key is a
// substring of its message's bytes, so the store never keeps the string a
// version came with: a new key is cloned once, and every later version of it
// shares the chain's string — in the item and in the map, since a string map
// key is overwritten on every assignment. No stored key pins a message.
func (sh *shard) apply(item wire.Item) {
	chain := sh.chains[item.Key]
	if len(chain) > 0 {
		item.Key = chain[0].Key
	} else {
		item.Key = strings.Clone(item.Key)
	}
	// Fast path: strictly newer than the tail (the common case).
	if n := len(chain); n == 0 || chain[n-1].Less(item) {
		sh.chains[item.Key] = append(chain, item)
		return
	}
	// General path: scan backwards for the insertion point.
	for i := len(chain) - 1; i >= 0; i-- {
		v := &chain[i]
		if v.UT == item.UT && v.TxID == item.TxID && v.SrcDC == item.SrcDC {
			return // duplicate delivery
		}
		if v.Less(item) {
			chain = append(chain, wire.Item{})
			copy(chain[i+2:], chain[i+1:])
			chain[i+1] = item
			sh.chains[item.Key] = chain
			return
		}
	}
	// Older than everything present: becomes the new head.
	chain = append(chain, wire.Item{})
	copy(chain[1:], chain)
	chain[0] = item
	sh.chains[item.Key] = chain
}

// VersionsIn collects every version with UT in (after, upTo], across all
// keys. It backs replication-stream repair: a peer that detected message
// loss asks for everything above its version-vector watermark, and the
// sender answers from here — the store is the durable record of what was
// replicated, so no separate retransmission log is needed. Versions already
// held by the requester are included too (the store cannot attribute a
// version to one replication stream); re-applying them is an idempotent
// no-op.
func (s *MVStore) VersionsIn(after, upTo hlc.Timestamp) []wire.Item {
	var out []wire.Item
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, chain := range sh.chains {
			for _, v := range chain {
				if v.UT > after && v.UT <= upTo {
					out = append(out, v)
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Read returns the freshest version of key with UT ≤ snapshot (Alg. 3
// lines 4–7), and false if no version is visible.
func (s *MVStore) Read(key string, snapshot hlc.Timestamp) (wire.Item, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[key]
	if i := newestAtOrBelow(chain, snapshot); i >= 0 {
		return chain[i], true
	}
	return wire.Item{}, false
}

// ReadLatest returns the newest version of key regardless of snapshot, and
// false if the key has never been written. Debug and example tooling use it;
// the protocol itself always reads within a snapshot.
func (s *MVStore) ReadLatest(key string) (wire.Item, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[key]
	if len(chain) == 0 {
		return wire.Item{}, false
	}
	return chain[len(chain)-1], true
}

// VersionCount returns the number of stored versions of key.
func (s *MVStore) VersionCount(key string) int {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.chains[key])
}

// Keys returns the number of distinct keys with at least one version.
func (s *MVStore) Keys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.chains)
		sh.mu.RUnlock()
	}
	return total
}

// Versions returns the total number of stored versions across all keys; the
// garbage-collection tests and capacity experiments use it.
func (s *MVStore) Versions() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, chain := range sh.chains {
			total += len(chain)
		}
		sh.mu.RUnlock()
	}
	return total
}

// gcBatchKeys bounds how many keys a GC sweep trims per write-lock
// acquisition, so collection paces itself against concurrent readers instead
// of stalling them behind a whole-shard sweep.
const gcBatchKeys = 64

// GC removes versions that no active or future transaction can read: for
// each key it keeps every version newer than oldest plus the single freshest
// version with UT ≤ oldest (§IV-B "Garbage collection"). It returns the
// number of versions removed.
func (s *MVStore) GC(oldest hlc.Timestamp) int {
	return s.gcPaced(oldest, nil)
}

// gcPaced is the shared sweep behind GC and GCResolve. It is paced:
// candidates are discovered under each shard's read lock (concurrent reads
// proceed), then trimmed in gcBatchKeys-sized batches under short write-lock
// windows. A key that gains versions between discovery and trim is
// re-checked under the write lock, so pacing never cuts a version the
// watermark does not cover. A nil resolverFor — or a nil resolver for a key
// — selects plain trimming; otherwise the cut versions fold through the
// key's resolver.
func (s *MVStore) gcPaced(oldest hlc.Timestamp, resolverFor func(key string) Resolver) int {
	removed := 0
	var keys []string // reused across shards
	for i := range s.shards {
		sh := &s.shards[i]
		keys = gcCandidates(sh, oldest, keys[:0])
		for start := 0; start < len(keys); start += gcBatchKeys {
			end := min(start+gcBatchKeys, len(keys))
			sh.mu.Lock()
			for _, key := range keys[start:end] {
				removed += gcKey(sh, key, oldest, resolverFor)
			}
			sh.mu.Unlock()
		}
	}
	return removed
}

// gcCandidates collects, under the read lock, the shard's keys with at least
// one version below the watermark cut.
func gcCandidates(sh *shard, oldest hlc.Timestamp, keys []string) []string {
	sh.mu.RLock()
	for key, chain := range sh.chains {
		if newestAtOrBelow(chain, oldest) > 0 {
			keys = append(keys, key)
		}
	}
	sh.mu.RUnlock()
	return keys
}

// newestAtOrBelow returns the index (in the ascending chain) of the newest
// version with UT ≤ oldest, or -1 if none. Every version before that index
// is unreachable by snapshots ≥ oldest. UT is non-decreasing along the chain
// (it is the major key of the chain's total order), so the answer is found by
// binary search — chains grow long under GC-off workloads and the linear
// scan this replaces sat on the hot read path.
func newestAtOrBelow(chain []wire.Item, oldest hlc.Timestamp) int {
	// Find the first index whose UT exceeds oldest; the one before it (if
	// any) is the newest visible version.
	lo, hi := 0, len(chain)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if chain[mid].UT <= oldest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}
