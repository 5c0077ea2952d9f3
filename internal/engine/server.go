package engine

// Server models a contended, in-order service resource: an NVM controller
// write port, an LLC bank, a mesh link. Requests are served FIFO in their
// arrival order; each occupies the server for its service latency. Because
// the memsys scheduler presents requests in nondecreasing global time
// order per resource, a single busy-until horizon models queuing delay
// exactly for an M/D/1-style in-order server.
type Server struct {
	busyUntil Time
}

// Serve books a request arriving at now with the given service latency and
// returns its completion time. The request waits until the server frees
// and occupies it for the full latency.
func (s *Server) Serve(now, latency Time) Time {
	return s.ServePipelined(now, latency, latency)
}

// ServePipelined books a request that occupies the server for occupancy
// cycles but completes latency cycles after it starts — a pipelined
// resource (an NVM controller with a DRAM-side write cache accepts a new
// line every few cycles even though each persist takes ~120 cycles to
// ack). occupancy must not exceed latency.
func (s *Server) ServePipelined(now, latency, occupancy Time) Time {
	if occupancy > latency {
		panic("engine: occupancy exceeds latency")
	}
	start := Max(now, s.busyUntil)
	s.busyUntil = start + occupancy
	return start + latency
}

// ServeConstrained books a request that *arrives* at the server at time
// arrive (consuming an occupancy slot in arrival order) but whose service
// may not logically begin before earliestStart (an ordering constraint —
// e.g., an epoch-ordered persist held until its predecessors ack).
// Bandwidth is consumed at arrival order, which in this simulator is
// nondecreasing wall time; the constraint delays only the completion.
func (s *Server) ServeConstrained(arrive, earliestStart, latency, occupancy Time) Time {
	if occupancy > latency {
		panic("engine: occupancy exceeds latency")
	}
	slot := Max(arrive, s.busyUntil)
	s.busyUntil = slot + occupancy
	return Max(slot, earliestStart) + latency
}

// FreeAt reports the earliest time a request arriving at now could start.
func (s *Server) FreeAt(now Time) Time { return Max(now, s.busyUntil) }

// Reset clears the server to an idle state at time zero.
func (s *Server) Reset() { *s = Server{} }

// ServerBank is a set of identical Servers selected by a hash of the
// request address, modeling banked resources such as a multi-controller
// NVM or a NUCA LLC.
type ServerBank struct {
	banks []Server
}

// NewServerBank creates a bank of n servers. n must be positive.
func NewServerBank(n int) *ServerBank {
	if n <= 0 {
		panic("engine: ServerBank size must be positive")
	}
	return &ServerBank{banks: make([]Server, n)}
}

// Bank returns the server responsible for the given key.
func (b *ServerBank) Bank(key uint64) *Server {
	return &b.banks[key%uint64(len(b.banks))]
}

// Len returns the number of banks.
func (b *ServerBank) Len() int { return len(b.banks) }

// Reset clears every bank.
func (b *ServerBank) Reset() {
	for i := range b.banks {
		b.banks[i].Reset()
	}
}
