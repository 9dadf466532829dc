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
