package memsys

import (
	"testing"

	"lrp/internal/isa"
	"lrp/internal/persist"
)

// BenchmarkScanDirty measures the persist-engine's dirty-line scan over
// an L1 with a realistic dirty set. The scan runs on every release under
// LRP and on every barrier under the flushing mechanisms, so its cost —
// and in particular whether it allocates — is on the simulator's hottest
// path. The per-core scratch buffer should keep steady-state allocations
// at zero (verified by ReportAllocs).
func BenchmarkScanDirty(b *testing.B) {
	cfg := TestConfig(1).WithMechanism(persist.NOP)
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
// operation crosses the run-ahead horizon and costs a full grant —
// leaderboard pop/push plus the park/unpark goroutine switches.
// ReportAllocs pins that steady-state grants allocate nothing beyond the
// two goroutine launches per Run (TestSchedulerGrantAllocs asserts the
// exact budget).
func BenchmarkSchedulerGrant(b *testing.B) {
	cfg := TestConfig(2).WithMechanism(persist.NOP)
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

// BenchmarkSchedulerRunAhead is the scheduler's best case: a single
// thread, infinite horizon, every operation admitted on the fast path
// with no goroutine switch.
func BenchmarkSchedulerRunAhead(b *testing.B) {
	cfg := TestConfig(2).WithMechanism(persist.NOP)
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
