package memsys

import (
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/perf"
	"lrp/internal/persist"
)

// TestRunZeroPrograms pins the kernel's emptiest edge: a Run with no
// programs must return immediately with the machine time unchanged.
func TestRunZeroPrograms(t *testing.T) {
	s := newSys(t, 2, persist.LRP)
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
// with no runner-up thread the horizon is infinite, so a single-program
// run performs every operation without one scheduler handoff beyond the
// initial grant.
func TestRunSingleThreadNeverParks(t *testing.T) {
	s := newSys(t, 4, persist.LRP)
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
// (barriers under NOP cost exactly IssueCost for every thread), so every
// scheduling decision is a tie. Ties must resolve to the smaller thread
// id — the recorded op stream must be a strict round-robin — exactly as
// the historical linear scan resolved them.
func TestClockTieTidOrdering(t *testing.T) {
	rec := &tidRecorder{}
	cfg := TestConfig(3).WithMechanism(persist.NOP)
	cfg.Rec = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	prog := func(c *Ctx) {
		for i := 0; i < rounds; i++ {
			c.Barrier()
		}
	}
	s.Run([]Program{prog, prog, prog})
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
	cfg := TestConfig(4).WithMechanism(persist.LRP)
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
func TestSchedCounterIdentity(t *testing.T) {
	s := newSys(t, 2, persist.LRP)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Work(10)
			c.Store(a, uint64(i))
		}
	}
	s.Run([]Program{prog, prog})
	s.Run([]Program{prog, prog})
	grants, runAhead := s.SchedStats()
	ops := s.Stats().Ops
	launched := uint64(4)
	if runAhead != ops-(grants-launched) {
		t.Fatalf("counter identity broken: runAhead %d, ops %d, grants %d, launched %d",
			runAhead, ops, grants, launched)
	}
}

// TestSchedulerPhaseAttribution pins the satellite fix for scheduler
// host-time accounting: the perf.PhaseScheduler region must cover the
// whole handoff — pick-next plus both goroutine switches — not just the
// pick-next scan. The region structure makes that checkable exactly: the
// kernel opens one region per Run call and one per park, so the region
// count must equal grants + 1, and the fast path must open none.
func TestSchedulerPhaseAttribution(t *testing.T) {
	p := perf.New(perf.Options{})
	cfg := TestConfig(2).WithMechanism(persist.LRP)
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
	grants, _ := s.SchedStats()
	var schedRegions, schedNs int64
	for _, st := range p.Snapshot() {
		if st.Phase == perf.PhaseScheduler {
			schedRegions, schedNs = st.Count, st.Ns
		}
	}
	if want := int64(grants) + 1; schedRegions != want {
		t.Fatalf("scheduler regions = %d, want grants+1 = %d (handoff not inside the region?)",
			schedRegions, want)
	}
	if schedNs <= 0 {
		t.Fatalf("scheduler phase accumulated %dns over %d grants", schedNs, grants)
	}
}

// TestSchedulerGrantAllocs asserts the kernel's steady-state allocation
// budget: granting and parking reuse the leaderboard, the Ctx handles and
// their channels, so a whole two-thread Run allocates only its goroutine
// launches — nothing per operation or per grant.
func TestSchedulerGrantAllocs(t *testing.T) {
	cfg := TestConfig(2).WithMechanism(persist.NOP)
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
	s.Run(progs) // warm the kernel's retained state
	allocs := testing.AllocsPerRun(5, func() {
		s.Run(progs)
	})
	// 2 goroutine launches per Run; everything else must be retained.
	// The bound is deliberately above the measured value (~4) but far
	// below one alloc per op (1000 ops/run).
	if allocs > 16 {
		t.Fatalf("Run allocated %.1f objects per call for 1000 ops; scheduler state is not being reused", allocs)
	}
}
