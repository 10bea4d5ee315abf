package server

import (
	"sync"

	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/wire"
)

// txTable is the coordinator's transaction-context table: one map under one
// mutex. Each client operation is one critical section of mu; so are the
// whole-table walks (the stabilization aggregate, TTL cleanup).
//
// Lock ordering: mu is a leaf. The 2PC table's lock may take it (the status
// path's decidingLocked probe); code holding mu takes no other lock.
type txTable struct {
	mu sync.Mutex
	m  map[wire.TxID]txContext
}

func (t *txTable) init() {
	t.m = make(map[wire.TxID]txContext)
}

// put installs ctx for id and returns its snapshot. With ust set, the
// snapshot is ust's value, loaded inside the critical section that inserts
// the context. minSnapshot loads the UST before its walk, so a walk that
// misses the context loaded at most that value: the GC watermark it feeds
// never passes the snapshot.
func (t *txTable) put(id wire.TxID, ctx txContext, ust *atomicTS) hlc.Timestamp {
	t.mu.Lock()
	if ust != nil {
		ctx.snapshot = ust.Load()
	}
	t.m[id] = ctx
	t.mu.Unlock()
	return ctx.snapshot
}

// touchGet returns the context and stamps its activity with the round label
// now in one critical section — the first step of every read and commit.
func (t *txTable) touchGet(id wire.TxID, now int64) (txContext, bool) {
	t.mu.Lock()
	ctx, ok := t.m[id]
	if ok {
		ctx.lastActive = now
		t.m[id] = ctx
	}
	t.mu.Unlock()
	return ctx, ok
}

// touch stamps the context's activity with the round label now if it still
// exists.
func (t *txTable) touch(id wire.TxID, now int64) {
	t.touchGet(id, now)
}

// delete removes the context.
func (t *txTable) delete(id wire.TxID) {
	t.mu.Lock()
	delete(t.m, id)
	t.mu.Unlock()
}

// contains reports whether a context exists for id.
func (t *txTable) contains(id wire.TxID) bool {
	t.mu.Lock()
	_, ok := t.m[id]
	t.mu.Unlock()
	return ok
}

// len counts live contexts.
func (t *txTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// minSnapshot folds the smallest context snapshot into init — the partition's
// oldest active snapshot, aggregated by the stabilization tree into the
// garbage-collection watermark. The caller loads init, its UST, before the
// walk (see put).
func (t *txTable) minSnapshot(init hlc.Timestamp) hlc.Timestamp {
	oldest := init
	t.mu.Lock()
	for _, ctx := range t.m {
		oldest = min(oldest, ctx.snapshot)
	}
	t.mu.Unlock()
	return oldest
}

// expire drops contexts last active before the round label cutoff.
func (t *txTable) expire(cutoff int64) {
	t.mu.Lock()
	for id, ctx := range t.m {
		if ctx.lastActive < cutoff {
			delete(t.m, id)
		}
	}
	t.mu.Unlock()
}
