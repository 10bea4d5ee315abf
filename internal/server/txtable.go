package server

import (
	"sync"
	"sync/atomic"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// txTable is the coordinator's transaction-context table, sharded N ways by
// TxID so concurrent StartTx/Read/Commit traffic from independent sessions
// never serializes on one lock. Each client operation touches exactly one
// shard; whole-table operations (the stabilization aggregate, TTL cleanup)
// visit shards one at a time and never block the others.
//
// Lock ordering: a shard lock is a leaf — code holding it must not acquire
// Server.mu or another shard's lock. (Server.mu → shard lock is allowed and
// used by the reaper's decidingLocked check.)
type txTable struct {
	shards [txTableShards]txShard
}

// txTableShards is a power of two; TxIDs carry a per-coordinator sequence
// number in their low bits, so consecutive transactions of one coordinator
// land on consecutive shards without further mixing.
const txTableShards = 64

type txShard struct {
	mu sync.Mutex
	m  map[wire.TxID]txContext
	// n mirrors len(m) atomically so whole-table scans — the stabilization
	// aggregate runs every round on every server — skip empty shards without
	// taking their locks, and len() costs no locks at all.
	n atomic.Int64
}

func (t *txTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[wire.TxID]txContext)
	}
}

func (t *txTable) shard(id wire.TxID) *txShard {
	return &t.shards[uint64(id)&(txTableShards-1)]
}

// put installs a context.
func (t *txTable) put(id wire.TxID, ctx txContext) {
	sh := t.shard(id)
	sh.mu.Lock()
	if _, ok := sh.m[id]; !ok {
		sh.n.Add(1)
	}
	sh.m[id] = ctx
	sh.mu.Unlock()
}

// touchGet returns the context and stamps its activity with the round label
// now in one shard visit — the first step of every read and commit.
func (t *txTable) touchGet(id wire.TxID, now int64) (txContext, bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	ctx, ok := sh.m[id]
	if ok {
		ctx.lastActive = now
		sh.m[id] = ctx
	}
	sh.mu.Unlock()
	return ctx, ok
}

// touch stamps the context's activity with the round label now if it still
// exists.
func (t *txTable) touch(id wire.TxID, now int64) {
	sh := t.shard(id)
	sh.mu.Lock()
	if ctx, ok := sh.m[id]; ok {
		ctx.lastActive = now
		sh.m[id] = ctx
	}
	sh.mu.Unlock()
}

// delete removes the context.
func (t *txTable) delete(id wire.TxID) {
	sh := t.shard(id)
	sh.mu.Lock()
	if _, ok := sh.m[id]; ok {
		sh.n.Add(-1)
		delete(sh.m, id)
	}
	sh.mu.Unlock()
}

// contains reports whether a context exists for id.
func (t *txTable) contains(id wire.TxID) bool {
	sh := t.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	sh.mu.Unlock()
	return ok
}

// len counts live contexts without taking any locks.
func (t *txTable) len() int {
	n := int64(0)
	for i := range t.shards {
		n += t.shards[i].n.Load()
	}
	return int(n)
}

// minSnapshot folds the smallest context snapshot into init — the partition's
// oldest active snapshot, aggregated by the stabilization tree into the
// garbage-collection watermark. Shards are visited one at a time, so the scan
// never stalls client operations on the other shards.
func (t *txTable) minSnapshot(init hlc.Timestamp) hlc.Timestamp {
	oldest := init
	for i := range t.shards {
		sh := &t.shards[i]
		if sh.n.Load() == 0 {
			continue // nothing to fold and no lock to pay for
		}
		sh.mu.Lock()
		for _, ctx := range sh.m {
			if ctx.snapshot < oldest {
				oldest = ctx.snapshot
			}
		}
		sh.mu.Unlock()
	}
	return oldest
}

// expire drops contexts last active before the round label cutoff and
// returns how many were evicted.
func (t *txTable) expire(cutoff int64) int {
	evicted := 0
	for i := range t.shards {
		sh := &t.shards[i]
		if sh.n.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		for id, ctx := range sh.m {
			if ctx.lastActive < cutoff {
				delete(sh.m, id)
				sh.n.Add(-1)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}
