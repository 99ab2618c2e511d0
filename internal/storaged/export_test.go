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

// Serve runs the accept loop on ln, as Start does on the TCP listener it
// opens, so a test can decide when connections arrive.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}
