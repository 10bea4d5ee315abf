// Package lockfix is the lockhold fixture: no blocking operation while a
// tracked mutex is held, and shard locks are leaves of the lock-ordering
// DAG (server-level → shard nesting is the only allowed edge).
package lockfix

import (
	"sync"
	"time"
)

type txShard struct {
	mu sync.Mutex
	m  map[uint64]int
}

type twoPCTable struct {
	mu       sync.Mutex
	prepared map[uint64]int
}

type Server struct {
	waitMu sync.Mutex
	sh     txShard
	sh2    txShard
	twoPC  twoPCTable
	ch     chan int
	wg     sync.WaitGroup
}

// Peer mirrors the transport's Peer: Call/Cast are network I/O.
type Peer struct{}

func (p *Peer) Call(x int) int { return x }
func (p *Peer) Cast(x int)     {}

func badSleep(s *Server) {
	s.sh.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking time.Sleep while holding txShard.mu`
	s.sh.mu.Unlock()
}

func badSend(s *Server) {
	s.waitMu.Lock()
	s.ch <- 1 // want `blocking channel send while holding Server.waitMu`
	s.waitMu.Unlock()
}

func badRecv(s *Server) {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	<-s.ch // want `blocking channel receive while holding txShard.mu`
}

func badCall(s *Server, p *Peer) {
	s.sh.mu.Lock()
	_ = p.Call(1) // want `blocking Peer.Call \(network I/O\) while holding txShard.mu`
	s.sh.mu.Unlock()
}

func badWait(s *Server) {
	s.waitMu.Lock()
	s.wg.Wait() // want `blocking sync.WaitGroup.Wait while holding Server.waitMu`
	s.waitMu.Unlock()
}

func badNestedShard(s *Server) {
	s.sh.mu.Lock()
	s.sh2.mu.Lock() // want `acquiring txShard.mu while holding leaf lock txShard.mu`
	s.sh2.mu.Unlock()
	s.sh.mu.Unlock()
}

func badShardThenServer(s *Server) {
	s.sh.mu.Lock()
	s.waitMu.Lock() // want `acquiring Server.waitMu while holding leaf lock txShard.mu`
	s.waitMu.Unlock()
	s.sh.mu.Unlock()
}

// badUnderTwoPC takes another table's lock directly under the 2PC table's:
// both are leaves.
func badUnderTwoPC(s *Server) {
	s.twoPC.mu.Lock()
	s.sh.mu.Lock() // want `acquiring txShard.mu while holding leaf lock twoPCTable.mu`
	s.sh.mu.Unlock()
	s.twoPC.mu.Unlock()
}

// badServerUnderTwoPC: nor may a server-level lock nest under it.
func badServerUnderTwoPC(s *Server) {
	s.twoPC.mu.Lock()
	defer s.twoPC.mu.Unlock()
	s.waitMu.Lock() // want `acquiring Server.waitMu while holding leaf lock twoPCTable.mu`
	s.waitMu.Unlock()
}

func badSelect(s *Server) {
	s.waitMu.Lock()
	select { // want `blocking select without default while holding Server.waitMu`
	case <-s.ch:
	}
	s.waitMu.Unlock()
}

// okServerToShard is the one allowed DAG edge.
func okServerToShard(s *Server) {
	s.waitMu.Lock()
	s.sh.mu.Lock()
	s.sh.mu.Unlock()
	s.waitMu.Unlock()
}

// okEarlyReturnUnlock: an unlocking early-return branch must not poison the
// fall-through path.
func okEarlyReturnUnlock(s *Server, cond bool) {
	s.sh.mu.Lock()
	if cond {
		s.sh.mu.Unlock()
		<-s.ch
		return
	}
	s.sh.mu.Unlock()
	<-s.ch
}

// okSelectDefault: a select with a default never parks.
func okSelectDefault(s *Server) {
	s.waitMu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.waitMu.Unlock()
}

// okGoroutine: a spawned goroutine does not inherit the caller's locks.
func okGoroutine(s *Server) {
	s.sh.mu.Lock()
	go func() {
		<-s.ch
	}()
	s.sh.mu.Unlock()
}

// okAfterUnlock: blocking after release is the intended pattern.
func okAfterUnlock(s *Server) {
	s.waitMu.Lock()
	s.waitMu.Unlock()
	time.Sleep(time.Millisecond)
	s.wg.Wait()
}

// okCondWait is the condvar idiom: Wait atomically releases its own lock
// while parked, so holding exactly that lock is the contract, not a bug.
func okCondWait(s *Server, c *sync.Cond) {
	s.waitMu.Lock()
	c.Wait()
	s.waitMu.Unlock()
}

// badCondWait parks with an extra lock held: the shard lock stays locked
// for the whole wait.
func badCondWait(s *Server, c *sync.Cond) {
	s.waitMu.Lock()
	s.sh.mu.Lock()
	c.Wait() // want `blocking sync\.Cond\.Wait \(parks with more than its own lock held\)`
	s.sh.mu.Unlock()
	s.waitMu.Unlock()
}

// okCollectThenSend is the flowpump/stability idiom: snapshot under the
// lock, release, then do the blocking work.
func okCollectThenSend(s *Server, p *Peer) {
	s.sh.mu.Lock()
	vals := make([]int, 0, len(s.sh.m))
	for _, v := range s.sh.m {
		vals = append(vals, v)
	}
	s.sh.mu.Unlock()
	for _, v := range vals {
		p.Cast(v)
	}
}
