package memsys

import (
	"runtime"
	"strings"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/perf"
)

// TestRunZeroPrograms pins the kernel's emptiest edge: a Run with no
// programs must return immediately with the machine time unchanged.
func TestRunZeroPrograms(t *testing.T) {
	s := newSys(t, 2, mech.LRP)
	s.RunOne(func(c *Ctx) { c.Work(100) })
	before := s.Time()
	if got := s.Run(nil); got != before {
		t.Fatalf("Run(nil) = %v, want %v", got, before)
	}
	if got := s.Run([]Program{}); got != before {
		t.Fatalf("Run(empty) = %v, want %v", got, before)
	}
}

// TestRunSingleThreadNeverParks pins the run-ahead fast path's best case:
// a single program's tournament has no other leaf to lose to, so the run
// performs every operation without one scheduler handoff beyond the
// initial grant.
func TestRunSingleThreadNeverParks(t *testing.T) {
	s := newSys(t, 4, mech.LRP)
	a := s.StaticAlloc(1)
	const ops = 500
	s.RunOne(func(c *Ctx) {
		for i := 0; i < ops; i++ {
			c.Store(a, uint64(i))
		}
	})
	grants, runAhead := s.SchedStats()
	if grants != 1 {
		t.Fatalf("grants = %d, want 1 (single thread must never park)", grants)
	}
	if runAhead != ops {
		t.Fatalf("runAhead = %d, want %d", runAhead, ops)
	}
}

// tidRecorder captures the thread-id sequence of the op stream.
type tidRecorder struct{ tids []int }

func (r *tidRecorder) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	r.tids = append(r.tids, tid)
}
func (r *tidRecorder) RecordTick(tid int, work engine.Time) {}
func (r *tidRecorder) RecordSync()                          {}
func (r *tidRecorder) RecordDrain()                         {}
func (r *tidRecorder) RecordMark(id uint8)                  {}

// TestClockTieTidOrdering drives three threads in perfect clock lockstep
// (after a warm-up Run and SyncClocks, L1-hit loads of each thread's
// private line cost the same for every thread), so every scheduling
// decision is a tie. Ties must resolve to the smaller thread id — the
// recorded op stream must be a strict round-robin — exactly as the
// historical linear scan resolved them.
func TestClockTieTidOrdering(t *testing.T) {
	rec := &tidRecorder{}
	cfg := TestConfig(3).WithMechanism(mech.NOP)
	cfg.Rec = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := []isa.Addr{s.StaticAlloc(8), s.StaticAlloc(8), s.StaticAlloc(8)}
	const rounds = 20
	progs := func(n int) []Program {
		ps := make([]Program, len(lines))
		for i := range ps {
			a := lines[i]
			ps[i] = func(c *Ctx) {
				for r := 0; r < n; r++ {
					c.Load(a)
				}
			}
		}
		return ps
	}
	s.Run(progs(1))
	s.SyncClocks()
	rec.tids = rec.tids[:0]
	s.Run(progs(rounds))
	if len(rec.tids) != 3*rounds {
		t.Fatalf("recorded %d ops, want %d", len(rec.tids), 3*rounds)
	}
	for i, tid := range rec.tids {
		if tid != i%3 {
			t.Fatalf("op %d on thread %d, want %d (tie must grant the smaller tid)", i, tid, i%3)
		}
	}
}

// issueRecorder reconstructs each operation's issue clock — the thread
// clock at its scheduling gate, i.e. after the explicit compute since the
// previous op but before the op's own cost — from the recorder stream,
// which fires at the perform point in exactly the kernel's global order.
type issueRecorder struct {
	s      *System
	prev   []engine.Time // per-thread clock after its previous record
	tids   []int
	clocks []engine.Time
}

func (r *issueRecorder) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	r.tids = append(r.tids, tid)
	r.clocks = append(r.clocks, r.prev[tid]+work)
	r.prev[tid] = r.s.clocks[tid]
}
func (r *issueRecorder) RecordTick(tid int, work engine.Time) { r.prev[tid] += work }
func (r *issueRecorder) RecordSync()                          {}
func (r *issueRecorder) RecordDrain()                         {}
func (r *issueRecorder) RecordMark(id uint8)                  {}

// TestRunAheadPreservesVirtualTimeOrder is the kernel's core invariant as
// a property test: whatever the interleaving pressure, operations must
// issue in nondecreasing clock order, and within one clock instant in
// strictly increasing thread-id order. Randomized compute bursts push
// threads far past each other so both the run-ahead fast path and the
// park path are exercised (asserted via the scheduler counters).
func TestRunAheadPreservesVirtualTimeOrder(t *testing.T) {
	log := &issueRecorder{}
	cfg := TestConfig(4).WithMechanism(mech.LRP)
	cfg.Rec = log
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log.s = s
	log.prev = make([]engine.Time, 4)
	shared := s.StaticAlloc(4)
	progs := make([]Program, 4)
	for i := 0; i < 4; i++ {
		i := i
		progs[i] = func(c *Ctx) {
			r := engine.NewRand(uint64(i)*77 + 5)
			for n := 0; n < 200; n++ {
				c.Work(engine.Time(r.Intn(300)))
				switch r.Intn(3) {
				case 0:
					c.Store(shared+isa.Addr(r.Intn(4)*isa.WordSize), uint64(n))
				case 1:
					c.Load(shared + isa.Addr(r.Intn(4)*isa.WordSize))
				default:
					c.CAS(shared, uint64(n), uint64(n+1), isa.AcqRel)
				}
			}
		}
	}
	s.Run(progs)
	if len(log.tids) != 4*200 {
		t.Fatalf("logged %d issues, want %d", len(log.tids), 4*200)
	}
	for i := 1; i < len(log.tids); i++ {
		c0, c1 := log.clocks[i-1], log.clocks[i]
		if c1 < c0 {
			t.Fatalf("issue %d: clock went backwards %v -> %v", i, c0, c1)
		}
		if c1 == c0 && log.tids[i] <= log.tids[i-1] {
			t.Fatalf("issue %d: tie at %v granted tid %d after tid %d", i, c1, log.tids[i], log.tids[i-1])
		}
	}
	grants, runAhead := s.SchedStats()
	if runAhead == 0 {
		t.Fatal("no run-ahead fast-path admissions in a 4-thread random workload")
	}
	if grants < 4 {
		t.Fatalf("grants = %d: a contended workload must also park", grants)
	}
}

// TestSchedCounterIdentity pins the accounting identity the scheduler
// counters must satisfy: every memory operation either ran ahead or
// parked, and every park plus every program finish is one grant. So for a
// machine driven only by Run calls,
//
//	runAhead = ops - (grants - programsLaunched)
//
// A walk's ops count like any others: a step the kernel performs for a
// parked walk either ran ahead or is the first op of a grant.
func TestSchedCounterIdentity(t *testing.T) {
	s := newSys(t, 2, mech.LRP)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Work(10)
			c.Store(a, uint64(i))
		}
	}
	walks := walkProgs(2, a, 30, 6)
	s.Run([]Program{prog, prog})
	s.Run(walks)
	s.Run([]Program{prog, walks[1]})
	grants, runAhead := s.SchedStats()
	ops := s.Stats().Ops
	launched := uint64(6)
	if runAhead != ops-(grants-launched) {
		t.Fatalf("counter identity broken: runAhead %d, ops %d, grants %d, launched %d",
			runAhead, ops, grants, launched)
	}
	if s.sched.served == 0 {
		t.Fatal("no walk turn was served by the dispatch loop")
	}
}

// storeWalk is a Walker issuing n stores to one word, each storing the
// value the previous op returned plus one.
type storeWalk struct {
	a    isa.Addr
	n, i int
}

func (w *storeWalk) Next(v uint64, _ bool) (isa.Op, bool) {
	if w.i == w.n {
		return isa.Op{}, false
	}
	w.i++
	return isa.StoreOp(w.a, v+1), true
}

// walkProgs returns n programs, each running the given number of walks of
// steps stores to a, with a little compute before each walk. Each
// thread's walker is allocated here, not inside the program.
func walkProgs(n int, a isa.Addr, walks, steps int) []Program {
	progs := make([]Program, n)
	for i := range progs {
		w := &storeWalk{a: a, n: steps}
		progs[i] = func(c *Ctx) {
			for j := 0; j < walks; j++ {
				c.Work(3)
				w.i = 0
				c.Walk(w)
			}
		}
	}
	return progs
}

// TestSchedulerPhaseAttribution pins scheduler host-time accounting: the
// perf.PhaseScheduler region must cover the whole handoff — pick-next
// plus both coroutine switches — not just the pick-next scan. The region
// structure makes that checkable exactly: the kernel opens one region per
// Run call and one per coroutine park or finish, and every grant but the
// first closes one, except the grants the dispatch loop serves whole for
// a parked walk, which neither open nor close one. So the region count
// must equal grants + 1 − served, and the fast path must open none. The
// second Run's walks pin the served term.
func TestSchedulerPhaseAttribution(t *testing.T) {
	p := perf.New(perf.Options{})
	cfg := TestConfig(2).WithMechanism(mech.LRP)
	cfg.Perf = p
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Work(5)
			c.Store(a, uint64(i))
		}
	}
	s.Run([]Program{prog, prog})
	s.Run(walkProgs(2, a, 20, 5))
	grants, _ := s.SchedStats()
	served := s.sched.served
	if served == 0 {
		t.Fatal("no walk turn was served by the dispatch loop")
	}
	var schedRegions, schedNs int64
	for _, st := range p.Snapshot() {
		if st.Phase == perf.PhaseScheduler {
			schedRegions, schedNs = st.Count, st.Ns
		}
	}
	if want := int64(grants) + 2 - int64(served); schedRegions != want {
		t.Fatalf("scheduler regions = %d, want grants+2−served = %d over two Runs (handoff not inside the region?)",
			schedRegions, want)
	}
	if schedNs <= 0 {
		t.Fatalf("scheduler phase accumulated %dns over %d grants", schedNs, grants)
	}
}

// TestSchedulerGrantAllocs asserts the kernel's steady-state allocation
// budget: granting and parking reuse the tournament's storage and the Ctx
// handles, so a whole two-thread Run allocates only thread 1's coroutine
// (thread 0 runs on Run's stack) — nothing per operation or per grant,
// and nothing per walk or per walk step, parked or not.
func TestSchedulerGrantAllocs(t *testing.T) {
	cfg := TestConfig(2).WithMechanism(mech.NOP)
	// Isolate the kernel: HB stamp capture and NVM event logging allocate
	// per write by design and would drown the scheduler's budget.
	cfg.TrackHB = false
	s := MustNew(cfg)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 500; i++ {
			c.Work(3)
			c.Store(a, uint64(i))
		}
	}
	progs := []Program{prog, prog}
	walks := walkProgs(2, a, 100, 5)
	for _, ps := range [][]Program{progs, walks} {
		s.Run(ps) // warm the kernel's retained state
		allocs := testing.AllocsPerRun(5, func() {
			s.Run(ps)
		})
		// One iter.Pull coroutine per Run (12 objects); everything else
		// must be retained. The bound is deliberately above the measured
		// value but far below one alloc per op (1000 ops/run).
		if allocs > 16 {
			t.Fatalf("Run allocated %.1f objects per call for 1000 ops; scheduler state is not being reused", allocs)
		}
	}
	if s.sched.served == 0 {
		t.Fatal("no walk turn was served by the dispatch loop")
	}
}

// threadGoroutines counts the coroutine threads alive, started or not:
// the goroutines whose stack dump says iter.Pull created them, which in
// this package only Run does. It reads every goroutine's stack rather
// than runtime.NumGoroutine, whose count also holds goroutines outside
// the kernel: the previous test's runner may still be exiting when a
// test starts, so a before/after difference of NumGoroutine is not the
// kernel's alone.
func threadGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "\ncreated by iter.Pull[")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRunPanicStopsEveryThread pins the kernel's stop path: a Program
// that panics mid-run surfaces from Run with its own value, every other
// thread is unwound without performing another operation, no coroutine
// outlives the Run, and the machine accepts the next Run.
func TestRunPanicStopsEveryThread(t *testing.T) {
	s := newSys(t, 3, mech.LRP)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Work(5)
			c.Store(a, uint64(i))
		}
	}
	type boom struct{ at uint64 }
	var opsAtPanic uint64
	progs := []Program{prog, func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Work(5)
			c.Store(a, uint64(i))
			if i == 40 {
				opsAtPanic = s.Stats().Ops
				panic(boom{at: opsAtPanic})
			}
		}
	}, prog}
	before := threadGoroutines()
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(progs)
		return nil
	}()
	if got != (boom{at: opsAtPanic}) {
		t.Fatalf("Run recovered %v, want the program's panic value", got)
	}
	if ops := s.Stats().Ops; ops != opsAtPanic {
		t.Fatalf("%d operations performed after the panic; stopped threads must unwind", ops-opsAtPanic)
	}
	if n := threadGoroutines(); n != before {
		t.Fatalf("%d thread goroutines after the panicking Run, %d before: a thread was left behind", n, before)
	}
	s.Run([]Program{prog, prog, prog})
	if ops := s.Stats().Ops; ops != opsAtPanic+300 {
		t.Fatalf("Run after the panic performed %d ops, want 300", ops-opsAtPanic)
	}
}

// panicWalk is a storeWalk that panics with boom at the first step the
// dispatch loop asks it for on a parked thread's behalf. It counts the
// other threads of s parked in a walk at that moment.
type panicWalk struct {
	storeWalk
	boom   any
	s      *System
	parked int
}

func (w *panicWalk) Next(v uint64, ok bool) (isa.Op, bool) {
	if calledByServe() {
		for _, c := range w.s.sched.ctxs {
			if c.walk != nil {
				w.parked++
			}
		}
		panic(w.boom)
	}
	return w.storeWalk.Next(v, ok)
}

// TestWalkPanicStopsEveryThread is the stop path's walk case: a Next that
// panics while the kernel runs it for a parked thread surfaces from Run
// with its own value, every coroutine is stopped, the walks other
// threads parked in are dropped, and the machine accepts the next Run.
func TestWalkPanicStopsEveryThread(t *testing.T) {
	s := newSys(t, 3, mech.LRP)
	a := s.StaticAlloc(1)
	type boom struct{}
	walks := walkProgs(3, a, 10, 20)
	pw := &panicWalk{storeWalk: storeWalk{a: a, n: 1000}, boom: boom{}, s: s}
	progs := []Program{walks[0], func(c *Ctx) {
		c.Store(a, 1)
		c.Walk(pw)
	}, walks[2]}
	before := threadGoroutines()
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(progs)
		return nil
	}()
	if got != (boom{}) {
		t.Fatalf("Run recovered %v, want the walker's panic value", got)
	}
	if pw.parked == 0 {
		t.Fatal("no other thread was parked in a walk when the walker panicked")
	}
	if n := threadGoroutines(); n != before {
		t.Fatalf("%d thread goroutines after the panicking Run, %d before: a thread was left behind", n, before)
	}
	for i, c := range s.sched.ctxs {
		if c.walk != nil {
			t.Fatalf("thread %d still parked in a walk after the Run", i)
		}
	}
	ops := s.Stats().Ops
	s.Run(walks)
	if got := s.Stats().Ops - ops; got != 3*10*20 {
		t.Fatalf("Run after the panic performed %d ops, want %d", got, 3*10*20)
	}
}

// TestRunGoexitPropagates pins the other way a Program can end its
// goroutine: runtime.Goexit (t.Fatal inside a Program) on a coroutine
// thread ends Run's goroutine too, rather than returning from Run, and
// leaves no coroutine behind.
func TestRunGoexitPropagates(t *testing.T) {
	s := newSys(t, 3, mech.LRP)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Work(5)
			c.Store(a, uint64(i))
		}
	}
	before := threadGoroutines()
	type exit struct {
		returned   bool
		goroutines int
	}
	exited := make(chan exit)
	go func() {
		e := exit{}
		defer func() {
			// Run's own deferred clean-up has run: no thread of it may
			// be left. This goroutine ran thread 0, which has no
			// coroutine.
			e.goroutines = threadGoroutines()
			exited <- e
		}()
		s.Run([]Program{prog, func(c *Ctx) {
			c.Store(a, 1)
			runtime.Goexit()
		}, prog})
		e.returned = true
	}()
	e := <-exited
	if e.returned {
		t.Fatal("Run returned after a program called runtime.Goexit")
	}
	if e.goroutines != before {
		t.Fatalf("%d thread goroutines while Run's goroutine exits, want %d: a thread was left behind",
			e.goroutines, before)
	}
}
