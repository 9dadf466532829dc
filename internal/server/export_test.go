package server

import "corundum/internal/repl"

// SubscribeStream returns the server's change stream for a test to read,
// attaching a non-durable one (as BACKUP does) when there is none.
func (s *Server) SubscribeStream() *repl.Log {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	log, _ := s.subscribeLocked()
	return log
}

// ForceLockedMode makes every read skip its seqlock bracket and walk
// under the shard's read lock.
func (s *Server) ForceLockedMode() { s.lockedMode.Store(true) }

// HoldShardLock takes shard i's writer lock, as a commit does, until the
// returned func releases it.
func (s *Server) HoldShardLock(i int) (release func()) {
	sh := s.st().shards[i]
	sh.lock.Lock()
	return sh.lock.Unlock
}
