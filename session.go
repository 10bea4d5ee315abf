package paris

import (
	"context"

	"github.com/paris-kv/paris/internal/client"
	"github.com/paris-kv/paris/internal/transport"
)

// Session is a client session bound to one coordinator: the public handle
// for running transactions.
type Session struct {
	c  *client.Client
	ep transport.Endpoint
}

// Close releases the session's transport resources.
func (s *Session) Close() {
	s.c.Close()
	_ = s.ep.Close()
}

// Client exposes the underlying protocol client (statistics, session
// timestamps).
func (s *Session) Client() *client.Client { return s.c }

// Tx is an open interactive transaction.
type Tx struct {
	s *Session
}

// Begin starts an interactive transaction. It is local: the transaction's
// first Read or Commit starts it at the coordinator, in the same round trip,
// so Begin followed by Commit or Abandon with nothing in between sends
// nothing.
func (s *Session) Begin(ctx context.Context) (*Tx, error) {
	if err := s.c.Start(ctx); err != nil {
		return nil, err
	}
	return &Tx{s: s}, nil
}

// Read returns the visible values of keys; absent keys have no entry.
func (t *Tx) Read(ctx context.Context, keys ...string) (map[string][]byte, error) {
	return t.s.c.Read(ctx, keys...)
}

// ReadOne reads one key.
func (t *Tx) ReadOne(ctx context.Context, key string) ([]byte, bool, error) {
	return t.s.c.ReadOne(ctx, key)
}

// Write buffers an update; it becomes atomically visible at commit.
func (t *Tx) Write(key string, value []byte) error {
	return t.s.c.Write(key, value)
}

// Snapshot returns the transaction's snapshot timestamp: zero until the first
// Read or Commit assigns it, fixed from then on.
func (t *Tx) Snapshot() Timestamp { return t.s.c.Snapshot() }

// Commit finalizes the transaction, returning the commit timestamp (zero
// for read-only transactions).
func (t *Tx) Commit(ctx context.Context) (Timestamp, error) {
	return t.s.c.Commit(ctx)
}

// Abandon abandons the transaction without committing buffered writes.
func (t *Tx) Abandon() { t.s.c.Abandon() }

// Update runs fn inside a transaction and commits it, returning the commit
// timestamp. If fn returns an error the transaction is abandoned.
func (s *Session) Update(ctx context.Context, fn func(tx *Tx) error) (Timestamp, error) {
	tx, err := s.Begin(ctx)
	if err != nil {
		return 0, err
	}
	if err := fn(tx); err != nil {
		tx.Abandon()
		return 0, err
	}
	return tx.Commit(ctx)
}

// View runs fn inside a read-only transaction.
func (s *Session) View(ctx context.Context, fn func(tx *Tx) error) error {
	tx, err := s.Begin(ctx)
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abandon()
		return err
	}
	_, err = tx.Commit(ctx)
	return err
}

// Get is a convenience one-shot read-only transaction over a set of keys.
func (s *Session) Get(ctx context.Context, keys ...string) (map[string][]byte, error) {
	var out map[string][]byte
	err := s.View(ctx, func(tx *Tx) error {
		var err error
		out, err = tx.Read(ctx, keys...)
		return err
	})
	return out, err
}

// Put is a convenience one-shot write transaction.
func (s *Session) Put(ctx context.Context, kvs map[string][]byte) (Timestamp, error) {
	return s.Update(ctx, func(tx *Tx) error {
		for k, v := range kvs {
			if err := tx.Write(k, v); err != nil {
				return err
			}
		}
		return nil
	})
}
