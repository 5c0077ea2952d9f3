package memsys

// Steady-state allocation budgets for the flattened hot path, companions
// to TestSchedulerGrantAllocs: once a machine's working set has
// materialized (flat tables sized, stamp arena grown), repeated
// identical work must not allocate per operation, per engine scan or per
// stamp append. Each test warms one Run and then bounds AllocsPerRun far
// below one object per op, so any reintroduced per-op allocation —
// a map on the persist path, a per-scan scratch slice, stamp slices —
// fails loudly.

import (
	"testing"

	"lrp/internal/isa"
	"lrp/internal/mech"
)

// steadyStateAllocs warms retained state with one Run and returns the
// allocation count of a subsequent identical Run.
func steadyStateAllocs(s *System, progs []Program) float64 {
	s.Run(progs)
	return testing.AllocsPerRun(5, func() { s.Run(progs) })
}

// TestPerformPathAllocs pins the plain write/upgrade/fetch path: stores
// and releases cycling through a working set that exercises L1 fills,
// LLC fills, directory entries and line blocking.
func TestPerformPathAllocs(t *testing.T) {
	cfg := TestConfig(2).WithMechanism(mech.LRP)
	cfg.TrackHB = false
	s := MustNew(cfg)
	addrs := make([]isa.Addr, 16)
	for i := range addrs {
		addrs[i] = s.StaticAlloc(8)
	}
	prog := func(c *Ctx) {
		for i := 0; i < 300; i++ {
			a := addrs[i%len(addrs)]
			c.Store(a, uint64(i))
			c.StoreRel(a, uint64(i))
		}
	}
	allocs := steadyStateAllocs(s, []Program{prog, prog})
	// One iter.Pull coroutine per Run (12 objects); everything else must
	// be retained (1200 memory ops per run).
	if allocs > 16 {
		t.Fatalf("steady-state Run allocated %.1f objects for 1200 ops; perform path is allocating", allocs)
	}
}

// TestEngineScanAllocs pins the persist-engine path: re-released lines
// force persistReleased scans every iteration, and a 2-bit epoch counter
// forces epoch-overflow flushAllDirty scans, which must reuse the scratch
// refs, schedule and scan buffers.
func TestEngineScanAllocs(t *testing.T) {
	cfg := TestConfig(1).WithMechanism(mech.LRP)
	cfg.TrackHB = false
	cfg.EpochBits = 2
	s := MustNew(cfg)
	addrs := make([]isa.Addr, 8)
	for i := range addrs {
		addrs[i] = s.StaticAlloc(8)
	}
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			for _, a := range addrs {
				c.Store(a, uint64(i))
			}
			// Two releases on one line: the second triggers the persist
			// engine on a released line (OnWrite case 2).
			c.StoreRel(addrs[0], uint64(i))
			c.StoreRel(addrs[0], uint64(i)+1)
		}
	}
	before := s.Stats()
	allocs := steadyStateAllocs(s, []Program{prog})
	after := s.Stats()
	if scans := after.EngineScans - before.EngineScans; scans < 100 {
		t.Fatalf("engine ran only %d scans; the test is not exercising the scan path", scans)
	}
	if ovf := after.EpochOverflows - before.EpochOverflows; ovf < 100 {
		t.Fatalf("only %d epoch-overflow flushes; the test is not exercising flushAllDirty", ovf)
	}
	if allocs > 16 {
		t.Fatalf("steady-state Run allocated %.1f objects across 100+ engine scans; scan scratch is not being reused", allocs)
	}
}

// TestStampArenaSteadyState pins stamp storage under happens-before
// tracking: appends and persist retirements must cycle arena nodes
// through the free list, not grow the arena, once the working set is
// warm. (The tracker and NVM event log allocate per write by design, so
// this asserts arena growth rather than total allocations.)
func TestStampArenaSteadyState(t *testing.T) {
	cfg := TestConfig(2).WithMechanism(mech.LRP)
	cfg.TrackHB = true
	s := MustNew(cfg)
	addrs := make([]isa.Addr, 16)
	for i := range addrs {
		addrs[i] = s.StaticAlloc(8)
	}
	prog := func(c *Ctx) {
		for i := 0; i < 200; i++ {
			a := addrs[i%len(addrs)]
			c.Store(a, uint64(i))
			c.StoreRel(a, uint64(i))
		}
	}
	progs := []Program{prog, prog}
	s.Run(progs)
	warm := s.stamps.Stats()
	if warm.Nodes == 0 {
		t.Fatal("tracking run left the stamp arena empty; stamps are not arena-backed")
	}
	for i := 0; i < 3; i++ {
		s.Run(progs)
	}
	after := s.stamps.Stats()
	if after.Nodes != warm.Nodes {
		t.Fatalf("stamp arena grew %d -> %d nodes across identical steady-state runs; chains are leaking",
			warm.Nodes, after.Nodes)
	}
	s.Drain()
	final := s.stamps.Stats()
	if final.FreeNodes != final.Nodes {
		t.Fatalf("after Drain, %d of %d arena nodes still in use; persist retirement is not freeing chains",
			final.Nodes-final.FreeNodes, final.Nodes)
	}
}
