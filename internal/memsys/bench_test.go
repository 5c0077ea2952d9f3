package memsys

import (
	"testing"

	"lrp/internal/isa"
	"lrp/internal/mech"
)

// BenchmarkScanDirty measures the persist-engine's dirty-line scan over
// an L1 with a realistic dirty set. The scan runs on every release under
// LRP and on every barrier under the flushing mechanisms, so its cost —
// and in particular whether it allocates — is on the simulator's hottest
// path. The per-core scratch buffer should keep steady-state allocations
// at zero (verified by ReportAllocs).
func BenchmarkScanDirty(b *testing.B) {
	cfg := TestConfig(1).WithMechanism(mech.NOP)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := s.StaticAlloc(64 * isa.WordsPerLine)
	s.RunOne(func(c *Ctx) {
		for i := 0; i < 64; i++ {
			c.Store(base+isa.Addr(i*isa.LineSize), uint64(i))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dirty := s.scanDirty(0); len(dirty) == 0 {
			b.Fatal("no dirty lines to scan")
		}
	}
}

// BenchmarkSchedulerGrant measures the scheduler's worst case: two
// threads in near-lockstep on one shared line, so virtually every
// operation loses its tournament replay and costs a full grant — the
// coroutine switch between thread 0 (on Run's stack) and thread 1.
// ReportAllocs pins that steady-state grants allocate nothing beyond
// thread 1's coroutine per Run (TestSchedulerGrantAllocs asserts the
// budget).
func BenchmarkSchedulerGrant(b *testing.B) {
	cfg := TestConfig(2).WithMechanism(mech.NOP)
	cfg.TrackHB = false // stamp capture allocates per write; measure the kernel
	s := MustNew(cfg)
	a := s.StaticAlloc(1)
	const opsPerRun = 200
	prog := func(c *Ctx) {
		for i := 0; i < opsPerRun; i++ {
			c.Store(a, uint64(i))
		}
	}
	progs := []Program{prog, prog}
	s.Run(progs) // warm the kernel's retained state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(progs)
	}
	b.StopTimer()
	grants, _ := s.SchedStats()
	b.ReportMetric(float64(grants)/float64(b.N+1), "grants/run")
}

// BenchmarkSchedulerGrant32 is BenchmarkSchedulerGrant at Figure 5's
// thread count: 32 threads in lockstep on one line, so nearly every
// operation is a grant and each replay walks the 32-leaf tournament's
// five levels.
func BenchmarkSchedulerGrant32(b *testing.B) {
	cfg := TestConfig(32).WithMechanism(mech.NOP)
	cfg.TrackHB = false
	s := MustNew(cfg)
	a := s.StaticAlloc(1)
	const opsPerRun = 50
	prog := func(c *Ctx) {
		for i := 0; i < opsPerRun; i++ {
			c.Store(a, uint64(i))
		}
	}
	progs := make([]Program, 32)
	for i := range progs {
		progs[i] = prog
	}
	s.Run(progs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(progs)
	}
	b.StopTimer()
	grants, _ := s.SchedStats()
	b.ReportMetric(float64(grants)/float64(b.N+1), "grants/run")
}

// chaseWalk is a Walker that follows a chain of link words from head to
// a zero link, one acquire load per node.
type chaseWalk struct {
	head    isa.Addr
	started bool
}

func (w *chaseWalk) Next(v uint64, _ bool) (isa.Op, bool) {
	if !w.started {
		w.started = true
		return isa.LoadAcq(w.head), true
	}
	if v == 0 {
		return isa.Op{}, false
	}
	return isa.LoadAcq(isa.Addr(v)), true
}

// BenchmarkSchedulerWalk32 is BenchmarkSchedulerGrant32 for walks: 32
// threads walk one shared 16-node list from synchronized clocks, so they
// stay in step and most steps are performed by the dispatch loop for a
// parked walk rather than by the thread. It reports host time per walk
// step and grants per Run.
func BenchmarkSchedulerWalk32(b *testing.B) {
	cfg := TestConfig(32).WithMechanism(mech.NOP)
	cfg.TrackHB = false
	cfg.L1Size = 4 << 10 // the list stays L1-resident: every step costs the same
	s := MustNew(cfg)
	const nodes, walksPerRun = 16, 4
	head := s.StaticAlloc(1)
	s.RunOne(func(c *Ctx) {
		cell := head
		for i := 0; i < nodes; i++ {
			n := s.StaticAlloc(isa.WordsPerLine)
			c.Store(cell, uint64(n))
			cell = n
		}
	})
	progs := make([]Program, 32)
	for i := range progs {
		w := &chaseWalk{head: head}
		progs[i] = func(c *Ctx) {
			for j := 0; j < walksPerRun; j++ {
				w.started = false
				c.Walk(w)
			}
		}
	}
	s.Run(progs)
	grants0, _ := s.SchedStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SyncClocks()
		s.Run(progs)
	}
	b.StopTimer()
	grants, _ := s.SchedStats()
	steps := float64(b.N) * 32 * walksPerRun * (nodes + 1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
	b.ReportMetric(float64(grants-grants0)/float64(b.N), "grants/run")
}

// BenchmarkSchedulerRunAhead is the scheduler's best case: a single
// thread, a tournament with no levels, every operation admitted on the
// fast path with no switch.
func BenchmarkSchedulerRunAhead(b *testing.B) {
	cfg := TestConfig(2).WithMechanism(mech.NOP)
	cfg.TrackHB = false
	s := MustNew(cfg)
	a := s.StaticAlloc(1)
	const opsPerRun = 200
	prog := func(c *Ctx) {
		for i := 0; i < opsPerRun; i++ {
			c.Store(a, uint64(i))
		}
	}
	s.RunOne(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunOne(prog)
	}
}
