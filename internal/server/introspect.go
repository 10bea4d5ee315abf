package server

import (
	"github.com/paris-kv/paris/internal/hlc"
	"github.com/paris-kv/paris/internal/store"
	"github.com/paris-kv/paris/internal/topology"
)

// Introspection accessors used by tests, benchmarks and operational tooling.
// None of them participate in the protocol.

// UST returns the server's current universal stable time.
func (s *Server) UST() hlc.Timestamp {
	return s.ust.Load()
}

// Sold returns the garbage-collection watermark (oldest active snapshot the
// stabilization protocol has agreed on).
func (s *Server) Sold() hlc.Timestamp {
	return s.sold.Load()
}

// VersionVector returns a copy of the server's version vector, keyed by the
// replica DCs of its partition.
func (s *Server) VersionVector() map[topology.DCID]hlc.Timestamp {
	out := make(map[topology.DCID]hlc.Timestamp)
	for dc := range s.vv {
		if s.vvLive[dc] {
			out[topology.DCID(dc)] = s.vv[dc].Load()
		}
	}
	return out
}

// InstalledLowerBound returns the timestamp below which every transaction is
// applied on this partition (the version-vector minimum).
func (s *Server) InstalledLowerBound() hlc.Timestamp {
	return s.installedLowerBound()
}

// Store exposes the underlying multi-version store for examples, benchmarks
// and invariant checks.
func (s *Server) Store() *store.MVStore { return s.store }

// PendingPrepared returns the number of transactions in the prepared queue.
func (s *Server) PendingPrepared() int {
	return s.twoPC.preparedCount()
}

// PendingCommitted returns the number of committed-but-unapplied
// transactions.
func (s *Server) PendingCommitted() int {
	return s.twoPC.committedCount()
}

// AbortedCount returns the number of aborted/reaped transaction tombstones
// currently retained (they age out after the abort retention window).
func (s *Server) AbortedCount() int {
	return s.twoPC.abortedCount()
}

// ActiveTxContexts returns the number of live coordinator transaction
// contexts.
func (s *Server) ActiveTxContexts() int {
	return s.txCtx.len()
}

// ClockNow ticks and returns the server's hybrid logical clock; test-only.
func (s *Server) ClockNow() hlc.Timestamp { return s.clock.Now() }
