//go:build go1.23

// The tag admits iter.Pull under go.mod's go 1.22; drop it when the go
// directive is raised to 1.23.

package memsys

import (
	"errors"
	"fmt"
	"iter"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/perf"
)

// sched is the event-driven scheduling kernel's hot state. Thread clocks
// themselves live in System.clocks (a dense struct-of-arrays slice — the
// protocol reads and writes them on every operation); sched holds the
// grant machinery built over them: the tournament over the current Run's
// threads and the per-thread coroutine handles, retained across Run calls
// so steady-state grants allocate nothing.
//
// Execution is one dispatch loop (sched.dispatch) on Run's goroutine. It
// grants the tournament's winner and resumes that thread. Before each
// operation, the running thread replays its leaf at its new clock: while
// it is still the winner it runs ahead with no switch. Threads 1…n−1 run
// as iter.Pull coroutines: a thread that loses the replay yields the new
// winner back to the loop, so a mandatory handoff costs two coroutine
// switches and no goroutine scheduling. Thread 0 runs on Run's own stack:
// when it loses, its handoff calls the loop itself, which returns once
// thread 0 is granted again. When a thread finishes, the loop retires its
// leaf, and returns when every leaf is done.
//
// A thread that parks inside a walk (Ctx.Walk) is not resumed at its
// grants: the loop performs its steps on its own stack, replaying the
// thread's leaf before each step exactly as the thread would, and grants
// the new winner when the thread loses. The thread's coroutine runs
// again only when the walk ends, so each grant of a parked walk costs a
// replay instead of two switches.
type sched struct {
	// tour holds every thread's (clock, tid) as of its last replay; the
	// running thread is its winner.
	tour engine.Tournament

	// ctxs are the per-thread handles, created once per machine and
	// reused by every Run call.
	ctxs []*Ctx

	// next and stop are the current Run's coroutines, indexed by tid.
	// Thread 0 has none: it runs on Run's own stack. A coroutine that
	// parks yields the winner of its handoff's replay, the next grant.
	next []func() (int, bool)
	stop []func()

	// grants counts thread grants; runAhead counts operations admitted on
	// the fast path with no handoff at all; served counts the grants the
	// loop served whole, a parked walk that lost its replay again before
	// it ended. Host-side counters only — they exist for tests and the
	// bench harness and never influence simulated time.
	grants   uint64
	runAhead uint64
	served   uint64
}

// errStopped unwinds a coroutine whose Run is being torn down: handoff
// panics with it when yield reports that the coroutine was stopped, and
// the coroutine body recovers it.
var errStopped = errors.New("memsys: thread stopped")

// ensure sizes the kernel for n threads, building the handles on first
// use.
func (k *sched) ensure(s *System, n int) {
	if len(k.ctxs) == n {
		return
	}
	k.ctxs = make([]*Ctx, n)
	for i := range k.ctxs {
		k.ctxs[i] = &Ctx{sys: s, tid: i}
	}
	k.next = make([]func() (int, bool), n)
	k.stop = make([]func(), n)
}

// dispatch is the kernel's loop. It grants tid, the tournament's winner,
// performs the steps of the walk it parked in, if any, and then resumes
// it until it parks or finishes. A parked coroutine has handed back the
// next grant, the winner of its replay; a finished thread's leaf is
// retired and the new winner granted. It returns when thread 0 is granted
// with no walk pending, for thread 0 to run on the caller's stack, or
// when every thread is done.
func (k *sched) dispatch(tid int) {
	for {
		k.grants++
		if c := k.ctxs[tid]; c.walk != nil {
			if next, parked := k.serve(c); parked {
				k.served++
				tid = next
				continue
			}
		}
		if tid == 0 {
			return
		}
		if next, parked := k.next[tid](); parked {
			tid = next
		} else if next, ok := k.tour.Retire(tid); ok {
			tid = next
		} else {
			return
		}
	}
}

// walkOn performs thread c's walk w from op on, replaying c's leaf before
// each step as handoff does. It returns the new winner and true when c
// loses a replay, leaving c parked in the walk at op, or false once the
// walk has ended.
func (k *sched) walkOn(c *Ctx, w Walker, op isa.Op) (int, bool) {
	s := c.sys
	for {
		if next := k.tour.Replay(c.tid, s.clocks[c.tid]); next != c.tid {
			c.walk, c.walkOp = w, op
			return next, true
		}
		k.runAhead++
		var more bool
		if op, more = w.Next(s.perform(c.tid, op)); !more {
			return 0, false
		}
	}
}

// serve performs the steps of the walk c parked in, as walkOn does. The
// grant has made c the winner, so the op it parked before needs no
// replay.
func (k *sched) serve(c *Ctx) (int, bool) {
	w := c.walk
	c.walk = nil // a panicking Next leaves no walk behind
	op, more := w.Next(c.sys.perform(c.tid, c.walkOp))
	if !more {
		return 0, false
	}
	return k.walkOn(c, w, op)
}

// run is a coroutine thread's body: it closes the scheduler region its
// grant opened, runs the program, and reopens the region for the loop
// that resumed it. A stopped thread unwinds out of its program with
// errStopped, which ends here.
func (c *Ctx) run(yield func(int) bool) {
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	c.yield = yield
	s := c.sys
	if s.perf != nil {
		s.perf.End()
	}
	c.prog(c)
	if s.perf != nil {
		s.perf.Start(perf.PhaseScheduler)
	}
}

// SchedStats reports the kernel's host-side scheduling counters since the
// machine was built: grants is the number of thread grants (each one a
// resumption of a parked or new thread, or a turn of a parked walk that
// the dispatch loop serves itself), runAhead the number of memory
// operations admitted on the fast path without any handoff.
func (s *System) SchedStats() (grants, runAhead uint64) {
	return s.sched.grants, s.sched.runAhead
}

// Run executes one program per hardware thread, interleaving their memory
// operations deterministically in virtual-time order (ties broken by
// thread id). It returns the execution time: the maximum thread clock.
// Run may be called multiple times; machine state persists between calls,
// which is how workloads separate their warm-up fill from the measured
// window.
//
// The kernel is event-driven rather than grant-per-op: the granted thread
// executes operations until its next operation would no longer order
// first — Ctx.handoff's fast path is one tournament replay, not a
// coroutine switch. Because every operation still replays *before*
// performing, operations execute in exactly the global (clock, tid) order
// the historical pick-one-op-per-grant scan produced; only the number
// (and cost) of switches changes.
//
// A program that panics or calls runtime.Goexit ends the Run the same
// way: every other thread's coroutine is stopped, and the panic (or
// Goexit) continues on Run's caller.
func (s *System) Run(progs []Program) engine.Time {
	if len(progs) > len(s.threads) {
		panic(fmt.Sprintf("memsys: %d programs for %d cores", len(progs), len(s.threads)))
	}
	n := len(progs)
	if n == 0 {
		s.flushRecWork()
		return s.Time()
	}
	k := &s.sched
	k.ensure(s, len(s.threads))
	// The scheduler phase region is open exactly while the kernel owns
	// execution: it opens when a thread parks or finishes (here, for the
	// coroutines' creation and the first grant) and the granted thread
	// closes it when it resumes, so the coroutine switches of a handoff
	// are attributed to perf.PhaseScheduler. The replay that decides
	// whether to park runs before the region opens, so the run-ahead fast
	// path costs no region at all.
	if s.perf != nil {
		s.perf.Start(perf.PhaseScheduler)
	}
	for i := 1; i < n; i++ {
		c := k.ctxs[i]
		c.prog = progs[i]
		k.next[i], k.stop[i] = iter.Pull(c.run)
	}
	defer k.stopAll(n)
	k.dispatch(k.tour.Reset(s.clocks[:n]))
	if s.perf != nil {
		s.perf.End()
	}
	progs[0](k.ctxs[0])
	if s.perf != nil {
		s.perf.Start(perf.PhaseScheduler)
	}
	if tid, ok := k.tour.Retire(0); ok {
		k.dispatch(tid)
	}
	if s.perf != nil {
		s.perf.End()
	}
	// Trailing compute after a thread's last operation still moves the
	// machine time; hand it to the recorder so replay reproduces it.
	s.flushRecWork()
	return s.Time()
}

// stopAll stops the coroutines of a Run's threads 1…n−1 and drops the
// walks they parked in. After a normal Run every coroutine has finished
// and stop is a no-op; after a panic it unwinds the threads still parked.
func (k *sched) stopAll(n int) {
	for i := 1; i < n; i++ {
		k.stop[i]()
	}
	for _, c := range k.ctxs[:n] {
		c.walk = nil
	}
}

// RunOne is a convenience wrapper running a single program on thread 0.
func (s *System) RunOne(p Program) engine.Time { return s.Run([]Program{p}) }
