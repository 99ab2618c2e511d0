package storaged

import "net"

// ServeConn runs the request loop on a connection the listener did not
// accept, and returns when the loop ends. It lets a test drive a handler
// over a net.Pipe: thousands of connections a second without a socket each.
func (s *Server) ServeConn(nc net.Conn) {
	s.mu.Lock()
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.handle(nc)
}
