package memsys

import (
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/perf"
)

// Program is the body of one simulated hardware thread. It runs under
// the event-driven kernel in sched.go — thread 0 on Run's own stack, the
// others as coroutines: every Ctx memory operation replays the thread's
// clock in the kernel's tournament before performing, parking back into
// the scheduler only when another thread's clock has become smaller, so
// memory operations execute in global virtual-time order.
type Program func(ctx *Ctx)

// Ctx is a thread's handle to the simulated machine. It is valid only
// inside the Program invocation it was passed to.
type Ctx struct {
	sys *System
	tid int

	// prog is the thread's program for the current Run, run by the
	// coroutine body Ctx.run. yield parks the coroutine back into the
	// kernel's dispatch loop, handing it the thread to grant next; it is
	// nil on thread 0, which runs on Run's stack and calls the loop
	// itself.
	prog  Program
	yield func(int) bool

	// walk and walkOp are the walk the thread parked in and the step it
	// parked before: while walk is set, the dispatch loop performs the
	// thread's steps itself and resumes the thread only when the walk
	// ends (Ctx.Walk).
	walk   Walker
	walkOp isa.Op
}

// ThreadID returns the hardware thread id.
func (c *Ctx) ThreadID() int { return c.tid }

// Now returns the thread's current clock.
func (c *Ctx) Now() engine.Time { return c.sys.clocks[c.tid] }

// Rand returns the thread's deterministic PRNG.
func (c *Ctx) Rand() *engine.Rand { return c.sys.threads[c.tid].rng }

// Alloc reserves nwords of simulated memory from the thread's arena.
// Allocation itself is architectural bookkeeping and costs no cycles;
// initializing the memory costs stores like any other.
func (c *Ctx) Alloc(nwords int) isa.Addr { return c.sys.threads[c.tid].arena.Alloc(nwords) }

// Work advances the thread's clock by n cycles of non-memory computation.
func (c *Ctx) Work(n engine.Time) { c.sys.advance(c.tid, n) }

// handoff gates one memory operation on the thread being the global
// minimum-clock runnable thread. Every memory operation gates *before*
// performing, so operations execute in nondecreasing global (clock, tid)
// order even when a thread advanced its clock with Work between
// operations.
//
// The thread replays its tournament leaf at its current clock. It is the
// winner, and the only thread whose key has changed since the last
// replay, so the replay is a complete re-selection. Fast path: while the
// thread still wins, a rerun of the scheduler would only grant it again,
// so it keeps executing with no switch at all. Otherwise it parks: it
// hands the new winner to the dispatch loop — a coroutine yields it,
// thread 0 runs the loop — until a later grant hands the machine back. A
// coroutine whose Run is being torn down unwinds instead of performing.
func (c *Ctx) handoff() {
	s := c.sys
	k := &s.sched
	next := k.tour.Replay(c.tid, s.clocks[c.tid])
	if next == c.tid {
		k.runAhead++
		return
	}
	c.park(next)
}

// park hands the machine to next, the winner of the thread's replay, and
// returns once a later grant hands it back.
func (c *Ctx) park(next int) {
	s := c.sys
	// The scheduler region stays open across the switch; the switches
	// land in it, and this thread closes it once it is granted again.
	if s.perf != nil {
		s.perf.Start(perf.PhaseScheduler)
	}
	if c.yield == nil {
		s.sched.dispatch(next)
	} else if !c.yield(next) {
		panic(errStopped)
	}
	if s.perf != nil {
		s.perf.End()
	}
}

// Walker is a traversal loop written as a state machine: each memory
// operation it issues is a pure function of the value the previous one
// returned. Next receives the outcome of the op it last returned (value
// and CAS success; zeros on the first call) and returns the next op, or
// false when the walk is done, its result held in the walker. Next must
// not call any Ctx method, and a walker must not live on its caller's
// stack: the kernel may call Next from the dispatch loop while the
// thread that started the walk is parked.
type Walker interface {
	Next(v uint64, ok bool) (isa.Op, bool)
}

// Walk performs w's operations on this thread, each gated like a Ctx
// memory operation. While the thread wins its replay, Walk performs the
// steps itself. Once it loses, it parks with the walker and the pending
// op, and the kernel performs the remaining steps at the thread's later
// grants without switching to its coroutine (sched.dispatch), so a
// traversal costs coroutine switches only at its end. The operations,
// their global order and every clock are those of the same loop written
// with Load, LoadAcq and CAS.
func (c *Ctx) Walk(w Walker) {
	if op, more := w.Next(0, false); more {
		if next, parked := c.sys.sched.walkOn(c, w, op); parked {
			c.park(next)
		}
	}
}

// Load performs a plain load.
func (c *Ctx) Load(a isa.Addr) uint64 {
	c.handoff()
	v, _ := c.sys.perform(c.tid, isa.LoadOp(a))
	return v
}

// LoadAcq performs an acquire load.
func (c *Ctx) LoadAcq(a isa.Addr) uint64 {
	c.handoff()
	v, _ := c.sys.perform(c.tid, isa.LoadAcq(a))
	return v
}

// Store performs a plain store.
func (c *Ctx) Store(a isa.Addr, v uint64) {
	c.handoff()
	c.sys.perform(c.tid, isa.StoreOp(a, v))
}

// StoreRel performs a release store.
func (c *Ctx) StoreRel(a isa.Addr, v uint64) {
	c.handoff()
	c.sys.perform(c.tid, isa.StoreRel(a, v))
}

// CAS performs a compare-and-swap with the given ordering, returning the
// value observed and whether the swap succeeded.
func (c *Ctx) CAS(a isa.Addr, expected, val uint64, order isa.Ordering) (uint64, bool) {
	c.handoff()
	return c.sys.perform(c.tid, isa.CASOp(a, expected, val, order))
}

// Linearize marks the thread's most recent write — typically the
// release CAS the caller just performed — as the linearization point of
// the data-structure operation in progress. The lfds implementations
// call it immediately after each successful linearizing CAS, before any
// helping or cleanup write can displace the stamp. It costs no simulated
// cycles, and returns at once unless the run captures its history.
func (c *Ctx) Linearize() {
	s := c.sys
	for _, h := range s.hist {
		h.RecordOpLin(c.tid, s.threads[c.tid].lastStamp, s.performSeq)
	}
}

// OpBegin marks the invocation of an abstract data-structure operation
// on this thread (kind/key/val use the dlin encoding). The workload
// harness brackets every structure call with OpBegin/OpEnd; both cost no
// simulated cycles and return at once unless the run captures its
// history, so uncaptured runs and plain recordings never see them.
func (c *Ctx) OpBegin(kind uint8, key, val uint64) {
	for _, h := range c.sys.hist {
		h.RecordOpBegin(c.tid, kind, key, val)
	}
}

// OpEnd marks the operation's response, reporting its outcome.
func (c *Ctx) OpEnd(ok bool, ret uint64) {
	for _, h := range c.sys.hist {
		h.RecordOpEnd(c.tid, ok, ret)
	}
}

// Drain flushes every buffered persist (per-thread mechanism state plus
// dirty LLC data under NOP), advancing each thread's clock past the
// flush. A clean shutdown calls this so the durable image converges to
// the architectural one.
func (s *System) Drain() engine.Time {
	if s.rec != nil {
		s.flushRecWork()
		s.rec.RecordDrain()
	}
	for _, th := range s.threads {
		s.clocks[th.id] = s.mech.Drain(th.id, s.clocks[th.id])
	}
	if s.mech.LLCEvictPersists() {
		now := s.Time()
		// Ordered walk (not Range): drain persists feed the NVM event log
		// and hence crash images, so iteration order must be canonical.
		s.drainKeys = s.llcStamps.Keys(s.drainKeys)
		for _, k := range s.drainKeys {
			line := isa.Addr(k)
			list := *s.llcStamps.Ptr(k)
			s.llcStamps.Delete(k)
			s.persistAddr(-1, line, &list, now, now, false)
			s.llc.MarkClean(line)
		}
		for _, line := range s.llc.DirtyLines() {
			s.persistAddr(-1, line, nil, now, now, false)
			s.llc.MarkClean(line)
		}
	}
	return s.Time()
}

// SyncClocks advances every thread's clock to the machine-wide maximum.
// Workload harnesses call this between the warm-up fill and the measured
// window so all workers start together.
func (s *System) SyncClocks() {
	if s.rec != nil {
		s.flushRecWork()
		s.rec.RecordSync()
	}
	max := s.Time()
	for i := range s.clocks {
		s.clocks[i] = max
	}
}
