package memsys

import (
	"testing"

	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/fault"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/model"
	"lrp/internal/persist"
)

func newSys(t *testing.T, cores int, k mech.Kind) *System {
	t.Helper()
	cfg := TestConfig(cores).WithMechanism(k)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := TestConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(c *Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 100 },
		func(c *Config) { c.MeshDim = 0 },
		func(c *Config) { c.RETWatermark = c.RETSize + 1 },
		func(c *Config) { c.EpochBits = 0 },
		func(c *Config) { c.ARPBufferCap = 0 },
		func(c *Config) { c.NVM.Controllers = 0 },
	}
	for i, mut := range bads {
		c := TestConfig(4)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
		if _, err := New(c); err == nil {
			t.Fatalf("case %d: New accepted bad config", i)
		}
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.Cores != 64 || c.L1Size != 32<<10 || c.L1Ways != 8 || c.L1Lat != 2 {
		t.Fatalf("L1 config: %+v", c)
	}
	if c.LLCSize != 64<<20 || c.LLCWays != 16 || c.LLCLat != 30 {
		t.Fatalf("LLC config: %+v", c)
	}
	if c.NVM.CachedLat != 120 || c.NVM.UncachedLat != 350 {
		t.Fatalf("NVM config: %+v", c)
	}
	if c.RETSize != 32 {
		t.Fatalf("RET size: %d", c.RETSize)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleThreadReadWrite(t *testing.T) {
	s := newSys(t, 1, mech.LRP)
	a := s.StaticAlloc(2)
	s.RunOne(func(c *Ctx) {
		c.Store(a, 42)
		if v := c.Load(a); v != 42 {
			t.Errorf("read-back: %d", v)
		}
		c.Store(a+8, 7)
		if v := c.Load(a + 8); v != 7 {
			t.Errorf("second word: %d", v)
		}
	})
	if s.Time() <= 0 {
		t.Fatal("time did not advance")
	}
	if s.Stats().Ops != 4 {
		t.Fatalf("ops: %d", s.Stats().Ops)
	}
}

func TestL1HitFasterThanMiss(t *testing.T) {
	s := newSys(t, 1, mech.NOP)
	a := s.StaticAlloc(1)
	var missTime, hitTime engine.Time
	s.RunOne(func(c *Ctx) {
		t0 := c.Now()
		c.Load(a) // cold miss: LLC + NVM
		t1 := c.Now()
		c.Load(a) // L1 hit
		t2 := c.Now()
		missTime, hitTime = t1-t0, t2-t1
	})
	if hitTime >= missTime {
		t.Fatalf("hit (%v) not faster than miss (%v)", hitTime, missTime)
	}
	if hitTime != s.Config().IssueCost+s.Config().L1Lat {
		t.Fatalf("hit latency: %v", hitTime)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (engine.Time, Stats) {
		s := newSys(t, 4, mech.LRP)
		base := s.StaticAlloc(64)
		progs := make([]Program, 4)
		for i := 0; i < 4; i++ {
			progs[i] = func(c *Ctx) {
				r := c.Rand()
				for n := 0; n < 200; n++ {
					a := base + isa.Addr(r.Intn(64))*8
					if r.Bool() {
						c.Store(a, uint64(n))
					} else {
						c.Load(a)
					}
					if n%10 == 0 {
						c.StoreRel(a, uint64(n))
					}
				}
			}
		}
		tm := s.Run(progs)
		return tm, s.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", t1, s1, t2, s2)
	}
}

func TestCoherenceVisibility(t *testing.T) {
	s := newSys(t, 2, mech.LRP)
	flag := s.StaticAlloc(1)
	data := s.StaticAlloc(1)
	var got uint64
	s.Run([]Program{
		func(c *Ctx) {
			c.Store(data, 99)
			c.StoreRel(flag, 1)
		},
		func(c *Ctx) {
			for c.LoadAcq(flag) != 1 {
			}
			got = c.Load(data)
		},
	})
	if got != 99 {
		t.Fatalf("reader saw %d", got)
	}
	if s.Stats().Downgrades == 0 {
		t.Fatal("expected at least one dirty-line forward")
	}
}

func TestCASSemantics(t *testing.T) {
	s := newSys(t, 1, mech.LRP)
	a := s.StaticAlloc(1)
	s.RunOne(func(c *Ctx) {
		c.Store(a, 5)
		if old, ok := c.CAS(a, 5, 6, isa.Release); !ok || old != 5 {
			t.Errorf("CAS should succeed: old=%d ok=%v", old, ok)
		}
		if old, ok := c.CAS(a, 5, 7, isa.Release); ok || old != 6 {
			t.Errorf("CAS should fail: old=%d ok=%v", old, ok)
		}
		if v := c.Load(a); v != 6 {
			t.Errorf("value after failed CAS: %d", v)
		}
	})
}

func TestCASContention(t *testing.T) {
	// N threads increment a counter via CAS; the final value must be the
	// number of successful increments.
	s := newSys(t, 4, mech.LRP)
	a := s.StaticAlloc(1)
	const perThread = 50
	progs := make([]Program, 4)
	for i := range progs {
		progs[i] = func(c *Ctx) {
			for n := 0; n < perThread; n++ {
				for {
					v := c.LoadAcq(a)
					if _, ok := c.CAS(a, v, v+1, isa.Release); ok {
						break
					}
				}
			}
		}
	}
	s.Run(progs)
	var final uint64
	s.RunOne(func(c *Ctx) { final = c.Load(a) })
	if final != 4*perThread {
		t.Fatalf("counter = %d, want %d", final, 4*perThread)
	}
}

// TestExecDispatch: each typed Ctx op performs its isa op.
func TestExecDispatch(t *testing.T) {
	s := newSys(t, 1, mech.SB)
	a := s.StaticAlloc(1)
	s.RunOne(func(c *Ctx) {
		c.Store(a, 3)
		if v := c.Load(a); v != 3 {
			t.Errorf("load: %d", v)
		}
		c.StoreRel(a, 4)
		if v := c.LoadAcq(a); v != 4 {
			t.Errorf("acq load: %d", v)
		}
		if _, ok := c.CAS(a, 4, 5, isa.AcqRel); !ok {
			t.Error("CAS failed")
		}
	})
}

func TestWorkAdvancesClock(t *testing.T) {
	s := newSys(t, 1, mech.NOP)
	s.RunOne(func(c *Ctx) {
		t0 := c.Now()
		c.Work(1000)
		if c.Now() != t0+1000 {
			t.Errorf("Work: %v -> %v", t0, c.Now())
		}
	})
}

// drainConvergence: after Drain, the durable image matches the
// architectural image for everything written, under every mechanism.
func TestDrainConvergence(t *testing.T) {
	for _, k := range mech.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := newSys(t, 2, k)
			base := s.StaticAlloc(128)
			s.Run([]Program{
				func(c *Ctx) {
					for i := 0; i < 64; i++ {
						c.Store(base+isa.Addr(i*8), uint64(i+1))
						if i%8 == 0 {
							c.StoreRel(base+isa.Addr(i*8), uint64(i+100))
						}
					}
				},
				func(c *Ctx) {
					for i := 64; i < 128; i++ {
						c.Store(base+isa.Addr(i*8), uint64(i+1))
						c.LoadAcq(base + isa.Addr((i-64)*8))
					}
				},
			})
			s.Drain()
			img := s.NVM().FinalImage(nil)
			for i := 0; i < 128; i++ {
				a := base + isa.Addr(i*8)
				if img.Read(a) != s.mem.Read(a) {
					t.Fatalf("addr %v: durable %d != arch %d", a, img.Read(a), s.mem.Read(a))
				}
			}
		})
	}
}

// The paper's core claim, end to end: under LRP (and SB, BB), the set of
// persisted writes at *every* instant is a consistent cut.
func TestConsistentCutEnforced(t *testing.T) {
	for _, k := range []mech.Kind{mech.SB, mech.BB, mech.LRP} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := newSys(t, 4, k)
			shared := s.StaticAlloc(32)
			progs := make([]Program, 4)
			for i := range progs {
				progs[i] = func(c *Ctx) {
					r := c.Rand()
					for n := 0; n < 150; n++ {
						node := c.Alloc(3)
						c.Store(node, uint64(n+1))
						c.Store(node+8, uint64(n+2))
						slot := shared + isa.Addr(r.Intn(32))*8
						c.LoadAcq(slot)
						c.StoreRel(slot, uint64(node))
					}
				}
			}
			end := s.Run(progs)
			tr := s.Tracker()
			// Check the cut at a spread of crash instants.
			for i := engine.Time(1); i <= 16; i++ {
				crash := end * i / 16
				if v := tr.CheckCut(crash, model.RP); v != nil {
					t.Fatalf("crash@%v: %d violations, first: %v", crash, len(v), v[0])
				}
			}
		})
	}
}

// The motivating gap: ARP admits crash states that are legal under its
// own rule yet violate RP — a release persisted before its preceding
// writes. NOP violates both freely.
func TestARPViolatesRPButNotitself(t *testing.T) {
	s := newSys(t, 1, mech.ARP)
	// Two lines on the same NVM controller, release line first in
	// address order so its persist is issued (and acked) first.
	ctrl := s.Config().NVM.Controllers
	base := s.StaticAlloc((ctrl + 1) * isa.WordsPerLine)
	flagAddr := base                               // lower address: drains first
	dataAddr := base + isa.Addr(ctrl*isa.LineSize) // same controller, higher address
	s.RunOne(func(c *Ctx) {
		c.Store(dataAddr, 1234) // the "node fields"
		c.StoreRel(flagAddr, 1) // the linking release
		c.LoadAcq(base + 8)     // thread's next acquire closes the epoch
		c.Store(dataAddr+8, 5)  // keep executing
	})
	end := s.Drain()
	tr := s.Tracker()
	foundRPViolation := false
	for crash := engine.Time(0); crash <= end; crash++ {
		if v := tr.CheckCut(crash, model.ARP); v != nil {
			t.Fatalf("ARP mechanism violated the ARP rule at %v: %v", crash, v)
		}
		if tr.CheckCut(crash, model.RP) != nil {
			foundRPViolation = true
		}
	}
	if !foundRPViolation {
		t.Fatal("expected a crash window where ARP leaves an RP-inconsistent cut")
	}
}

func TestRPMechanismsCloseTheWindow(t *testing.T) {
	// The exact access pattern of the ARP test, under LRP: no window.
	s := newSys(t, 1, mech.LRP)
	ctrl := s.Config().NVM.Controllers
	base := s.StaticAlloc((ctrl + 1) * isa.WordsPerLine)
	s.RunOne(func(c *Ctx) {
		c.Store(base+isa.Addr(ctrl*isa.LineSize), 1234)
		c.StoreRel(base, 1)
		c.LoadAcq(base + 8)
		c.Store(base+isa.Addr(ctrl*isa.LineSize)+8, 5)
	})
	end := s.Drain()
	tr := s.Tracker()
	for crash := engine.Time(0); crash <= end; crash++ {
		if v := tr.CheckCut(crash, model.RP); v != nil {
			t.Fatalf("LRP violated RP at %v: %v", crash, v)
		}
	}
}

// Invariant I3: a successful acquire-RMW blocks until its write persists.
func TestI3AcquireRMWBlocks(t *testing.T) {
	s := newSys(t, 1, mech.LRP)
	a := s.StaticAlloc(1)
	var casCost engine.Time
	s.RunOne(func(c *Ctx) {
		c.Store(a, 0)
		t0 := c.Now()
		c.CAS(a, 0, 1, isa.AcqRel)
		casCost = c.Now() - t0
	})
	if casCost < s.NVM().Latency() {
		t.Fatalf("acquire-RMW cost %v < NVM latency %v: I3 not enforced", casCost, s.NVM().Latency())
	}
	// A release-only CAS must NOT block on the NVM.
	s2 := newSys(t, 1, mech.LRP)
	a2 := s2.StaticAlloc(1)
	var relCost engine.Time
	s2.RunOne(func(c *Ctx) {
		c.Store(a2, 0)
		t0 := c.Now()
		c.CAS(a2, 0, 1, isa.Release)
		relCost = c.Now() - t0
	})
	if relCost >= s2.NVM().Latency() {
		t.Fatalf("release CAS cost %v looks blocking: LRP releases must be lazy", relCost)
	}
}

// Invariant I2: an acquire that hits a released line in another L1 blocks
// until the release (and its preceding writes) persist.
func TestI2DowngradeBlocks(t *testing.T) {
	s := newSys(t, 2, mech.LRP)
	flag := s.StaticAlloc(1)
	data := s.StaticAlloc(1)
	var readCost engine.Time
	s.Run([]Program{
		func(c *Ctx) {
			c.Store(data, 7)
			c.StoreRel(flag, 1)
			// Stay idle so the line remains in this L1.
			c.Work(100000)
		},
		func(c *Ctx) {
			c.Work(500) // let the writer finish first
			t0 := c.Now()
			if c.LoadAcq(flag) != 1 {
				t.Errorf("reader raced ahead")
			}
			readCost = c.Now() - t0
		},
	})
	// The acquire had to wait for two serialized persists (data line,
	// then released flag line).
	if readCost < 2*s.NVM().Latency() {
		t.Fatalf("acquire cost %v: I2 did not serialize data+release persists", readCost)
	}
	if s.Stats().CriticalPersists == 0 {
		t.Fatal("I2 persists should be counted as critical")
	}
}

func TestSBSlowerThanBBSlowerThanLRP(t *testing.T) {
	// An LFD-shaped workload: threads mostly prepare private nodes and
	// release them into mostly-private slots, with occasional
	// cross-thread synchronization — the paper's regime, where
	// intra-thread persistency overhead dominates (§6.4).
	run := func(k mech.Kind) engine.Time {
		// A machine with enough L1 capacity and NVM bandwidth that
		// persist *ordering*, not raw bandwidth, is the bottleneck —
		// the paper's regime.
		cfg := TestConfig(2).WithMechanism(k)
		cfg.L1Size = 4 << 10
		cfg.NVM.Controllers = 8
		s := MustNew(cfg)
		shared := s.StaticAlloc(32)
		progs := make([]Program, 2)
		for i := range progs {
			i := i
			progs[i] = func(c *Ctx) {
				r := c.Rand()
				for n := 0; n < 300; n++ {
					node := c.Alloc(3)
					c.Store(node, uint64(n+1))
					c.Store(node+8, uint64(n+2))
					slot := shared + isa.Addr(i*16+r.Intn(16))*8
					if n%8 == 7 {
						// Occasionally synchronize with the other thread.
						slot = shared + isa.Addr(((i+1)%2)*16+r.Intn(16))*8
					}
					c.LoadAcq(slot)
					c.StoreRel(slot, uint64(node))
				}
			}
		}
		return s.Run(progs)
	}
	nop, lrp, bb, sb := run(mech.NOP), run(mech.LRP), run(mech.BB), run(mech.SB)
	if !(nop <= lrp && lrp < bb && bb < sb) {
		t.Fatalf("expected NOP<=LRP<BB<SB, got NOP=%v LRP=%v BB=%v SB=%v", nop, lrp, bb, sb)
	}
}

func TestRETWatermarkTriggers(t *testing.T) {
	s := newSys(t, 1, mech.LRP)
	// Releases to more distinct lines than the RET watermark.
	n := s.Config().RETSize * 2
	base := s.StaticAlloc(n * isa.WordsPerLine)
	s.RunOne(func(c *Ctx) {
		for i := 0; i < n; i++ {
			c.StoreRel(base+isa.Addr(i*isa.LineSize), uint64(i+1))
		}
	})
	if s.Stats().RETWatermarkFlushes == 0 {
		t.Fatal("RET watermark never triggered")
	}
}

// TestL1EvictionsCounted pins the L1 eviction counts of the counter
// block: every capacity eviction lands in the evicting core's row, dirty
// ones also in L1DirtyEvictions, and each dirty one is a write-back.
func TestL1EvictionsCounted(t *testing.T) {
	s := newSys(t, 1, mech.NOP)
	// The test L1 has 8 sets of 2 ways: lines 8 apart share a set.
	sets := s.cfg.L1Size / isa.LineSize / s.cfg.L1Ways
	base := s.StaticAlloc(5 * sets * isa.WordsPerLine)
	at := func(i int) isa.Addr { return base + isa.Addr(i*sets*isa.LineSize) }
	s.RunOne(func(c *Ctx) {
		c.Store(at(0), 1)
		c.Store(at(1), 1)
		c.Load(at(2)) // evicts 0, Modified
		c.Load(at(3)) // evicts 1, Modified
		c.Load(at(4)) // evicts 2, Exclusive
	})
	r := s.Counts().Row(0)
	if r.L1Evictions != 3 || r.L1DirtyEvictions != 2 {
		t.Fatalf("evictions %d (dirty %d), want 3 (2)", r.L1Evictions, r.L1DirtyEvictions)
	}
	if st := s.Stats(); st.Writebacks != 2 {
		t.Fatalf("write-backs %d, want 2", st.Writebacks)
	}
}

func TestEpochOverflowFlushes(t *testing.T) {
	cfg := TestConfig(1).WithMechanism(mech.LRP)
	cfg.EpochBits = 3 // overflow after 7 releases
	s := MustNew(cfg)
	a := s.StaticAlloc(1)
	s.RunOne(func(c *Ctx) {
		for i := 0; i < 20; i++ {
			c.StoreRel(a, uint64(i))
		}
	})
	if s.Stats().EpochOverflows == 0 {
		t.Fatal("epoch overflow never triggered")
	}
	// The cut must stay consistent across overflows.
	end := s.Drain()
	for i := engine.Time(1); i <= 8; i++ {
		if v := s.Tracker().CheckCut(end*i/8, model.RP); v != nil {
			t.Fatalf("overflow broke the cut: %v", v)
		}
	}
}

func TestCriticalPathClassification(t *testing.T) {
	// SB puts essentially all persists on the critical path; LRP far
	// fewer (Figure 6's contrast). Slots are mostly private so the
	// workload is in the paper's regime rather than a pure ping-pong.
	run := func(k mech.Kind) (critical, total uint64) {
		cfg := TestConfig(2).WithMechanism(k)
		cfg.NVM.Controllers = 8
		s := MustNew(cfg)
		shared := s.StaticAlloc(64)
		progs := make([]Program, 2)
		for i := range progs {
			i := i
			progs[i] = func(c *Ctx) {
				r := c.Rand()
				for n := 0; n < 200; n++ {
					node := c.Alloc(2)
					c.Store(node, uint64(n+1))
					slot := shared + isa.Addr(i*32+r.Intn(32))*8
					if n%8 == 7 {
						slot = shared + isa.Addr(((i+1)%2)*32+r.Intn(32))*8
					}
					c.LoadAcq(slot)
					c.StoreRel(slot, uint64(node))
				}
			}
		}
		s.Run(progs)
		st := s.Stats()
		return st.CriticalPersists, st.Persists
	}
	sbCrit, sbTotal := run(mech.SB)
	lrpCrit, lrpTotal := run(mech.LRP)
	if sbTotal == 0 || lrpTotal == 0 {
		t.Fatal("no persists recorded")
	}
	sbFrac := float64(sbCrit) / float64(sbTotal)
	lrpFrac := float64(lrpCrit) / float64(lrpTotal)
	if sbFrac < 0.5 {
		t.Fatalf("SB critical fraction %v too low", sbFrac)
	}
	if lrpFrac >= sbFrac {
		t.Fatalf("LRP critical fraction %v not below SB's %v", lrpFrac, sbFrac)
	}
}

func TestUncachedModeSlower(t *testing.T) {
	run := func(mode int) engine.Time {
		cfg := TestConfig(2).WithMechanism(mech.SB)
		if mode == 1 {
			cfg.NVM.Mode = 1 // Uncached
		}
		s := MustNew(cfg)
		a := s.StaticAlloc(4)
		return s.Run([]Program{func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.Store(a, uint64(i))
				c.StoreRel(a+8, uint64(i))
			}
		}})
	}
	if cached, uncached := run(0), run(1); uncached <= cached {
		t.Fatalf("uncached (%v) should be slower than cached (%v)", uncached, cached)
	}
}

func TestRunRejectsTooManyPrograms(t *testing.T) {
	s := newSys(t, 1, mech.NOP)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Run(make([]Program, 2))
}

func TestSyncClocks(t *testing.T) {
	s := newSys(t, 2, mech.NOP)
	a := s.StaticAlloc(1)
	s.Run([]Program{
		func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.Store(a, 1)
			}
		},
		func(c *Ctx) { c.Load(a) },
	})
	s.SyncClocks()
	if s.clocks[0] != s.clocks[1] {
		t.Fatal("clocks not synchronized")
	}
}

func TestStringer(t *testing.T) {
	s := newSys(t, 2, mech.LRP)
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestPersistHoldsLineUntilAck pins Invariant I4 where it is enforced:
// every persist path holds its line at the directory until exactly the
// ack it returns, so mechanisms need no hold of their own for it.
func TestPersistHoldsLineUntilAck(t *testing.T) {
	s := newSys(t, 1, mech.LRP)
	first := s.StaticAlloc(5*isa.WordsPerLine).Line() + isa.LineSize // four whole lines
	line := func(i int) isa.Addr { return first + isa.Addr(i*isa.LineSize) }
	s.RunOne(func(c *Ctx) {
		for i := 0; i < 4; i++ {
			c.Store(line(i), uint64(i+1))
		}
	})
	now := s.Time()
	check := func(path string, addr isa.Addr, ack engine.Time) {
		t.Helper()
		if ack <= now {
			t.Fatalf("%s: ack %v not after issue %v", path, ack, now)
		}
		if got := s.lineAvailable(addr, now); got != ack {
			t.Fatalf("%s: line available at %v, ack at %v", path, got, ack)
		}
	}
	l1 := func(addr isa.Addr) *cache.Line {
		t.Helper()
		l := s.l1s[0].Lookup(addr)
		if l == nil || !l.NeedsPersist() {
			t.Fatalf("line %v not dirty in the L1", addr)
		}
		return l
	}
	// A held persist (earliest in the future) acks later than an unheld
	// one; the directory follows either.
	check("persistL1Line", line(0), s.persistL1Line(0, l1(line(0)), now, now+1000, false))
	check("persistAddr", line(1), s.persistAddr(-1, line(1), nil, now, now, false))
	var list persist.StampList
	check("persistAddr (held, with a chain)", line(2), s.persistAddr(-1, line(2), &list, now, now+300, false))
	check("sysView.PersistL1Line", line(3), (*sysView)(s).PersistL1Line(0, l1(line(3)), now, now, false))
}

// A torn persist that re-carries a word makes the word's last writer
// durable from its start, even when an earlier persist of the line held
// the write's stamp: the crash image holds the word from that start on.
// The first persist carries the stamp but tears without the word; the
// second carries no stamp, starts before the first acks and tears with
// the word.
func TestTornRecarryCreditsLastWriter(t *testing.T) {
	cases := 0
	for seed := uint64(1); seed <= 64; seed++ {
		cfg := TestConfig(1).WithMechanism(mech.NOP)
		cfg.Faults = fault.Config{Seed: seed, TearProb: 1}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		line := s.StaticAlloc(2*isa.WordsPerLine).Line() + isa.LineSize
		word := line + 3*isa.WordSize
		s.RunOne(func(c *Ctx) { c.Store(word, 42) })
		now := s.Time()
		l := s.l1s[0].Lookup(line)
		if l == nil || !l.NeedsPersist() {
			t.Fatal("the stored line is not dirty in the L1")
		}
		done1 := s.persistL1Line(0, l, now, now, false)
		done2 := s.persistAddr(-1, line, nil, now+1, now+1, false)
		start2 := s.NVM().StartOf(done2)
		m1, _ := s.Faults().TornWords(line, done1)
		m2, _ := s.Faults().TornWords(line, done2)
		if m1&(1<<3) != 0 || m2&(1<<3) == 0 || start2 >= done1 {
			continue
		}
		cases++
		w := model.Stamp{Tid: 0, Seq: 1}
		if got := s.Tracker().DurableAt(w); got != start2 {
			t.Fatalf("seed %d: DurableAt = %v, want the re-carrying persist's start %v (first persist acked at %v)", seed, got, start2, done1)
		}
	}
	if cases == 0 {
		t.Fatal("no seed tore the two persists as the test needs")
	}
}
