package memsys

import (
	"fmt"

	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/fault"
	"lrp/internal/flat"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/mm"
	"lrp/internal/model"
	"lrp/internal/nvm"
	"lrp/internal/obs"
	"lrp/internal/perf"
	"lrp/internal/persist"
	"lrp/internal/stats"
)

// Stats aggregates run-level counters across the machine.
type Stats struct {
	// Ops counts memory operations executed.
	Ops uint64
	// Persists counts line persists issued to the NVM controllers.
	Persists uint64
	// CriticalPersists counts persists issued while some core's clock
	// was blocked waiting on them (the paper's "write backs in the
	// critical path of execution", Figure 6).
	CriticalPersists uint64
	// Writebacks counts dirty-line movements out of an L1 (evictions
	// and downgrades).
	Writebacks uint64
	// StallCycles accumulates cycles cores spent blocked on persistency
	// actions (barriers, conflicts, I2/I3 waits).
	StallCycles uint64
	// RETWatermarkFlushes counts persists triggered by RET occupancy.
	RETWatermarkFlushes uint64
	// EpochOverflows counts epoch-counter wraparound flushes.
	EpochOverflows uint64
	// Downgrades counts dirty-line forwards between L1s.
	Downgrades uint64
	// I2Stalls counts downgrades of released lines (acquires that had to
	// block, Invariant I2); I2Cycles is the total blocked time.
	I2Stalls uint64
	I2Cycles uint64
	// EngineScans counts persist-engine runs; EngineReleases the
	// released lines they persisted (serial NVM round trips).
	EngineScans    uint64
	EngineReleases uint64
}

// Sub returns the counter deltas s - before, field by field. Counters
// added to Stats are picked up automatically, so window-delta consumers
// (the workload harness) never silently drop one.
func (s Stats) Sub(before Stats) Stats { return stats.Delta(s, before) }

// thread is the per-hardware-thread machine state. The thread's clock —
// the hottest field, read and written on every operation and compared on
// every scheduling decision — lives in System.clocks (struct-of-arrays)
// rather than here.
type thread struct {
	id int

	arena *mm.Arena
	rng   *engine.Rand

	// recWork accumulates explicit compute (Ctx.Work) since the thread's
	// last recorder event; only maintained while a Recorder is attached.
	recWork engine.Time

	// lastStamp is the happens-before stamp of the thread's most recent
	// write (zero without a tracker); Ctx.Linearize reports it as an
	// operation's linearization point.
	lastStamp model.Stamp

	// Persistency bookkeeping shared by all mechanisms; mechanism-private
	// state lives inside the mech.Mechanism implementations.
	epochs  *persist.EpochCounter
	ret     *persist.RET
	pending engine.CompletionSet // outstanding persists (for drains)
}

// System is the assembled machine.
type System struct {
	cfg     Config
	mem     *mm.Memory
	nvm     *nvm.Subsystem
	tracker *model.Tracker

	l1s []*cache.L1
	llc *cache.LLC
	dir *cache.Directory

	llcSrv *engine.ServerBank

	// lineBlocked implements the directory's transient blocking state
	// (Invariant I4): requests to a line wait until its in-flight
	// persist acks. A flat table rather than a map: blockLine and
	// lineAvailable run on every miss and every persist.
	lineBlocked flat.Table[engine.Time]

	// llcStamps holds happens-before stamps for dirty data that moved to
	// the LLC without persisting (NOP only); they persist when the LLC
	// evicts the line to NVM. Values are arena-backed chains in stamps.
	llcStamps flat.Table[persist.StampList]

	// stamps is the machine's stamp arena: every happens-before stamp
	// chain (L1 lines, llcStamps) lives here, so stamp append and persist
	// retirement allocate nothing in steady state.
	stamps *persist.StampArena

	// drainKeys backs Drain's ordered walk of llcStamps.
	drainKeys []uint64

	threads []*thread
	mech    mech.Mechanism

	// clocks[i] is thread i's virtual clock, kept as a dense slice so the
	// protocol's per-op reads/writes and the scheduling kernel's horizon
	// comparisons touch contiguous memory instead of chasing thread
	// structs. sched is the event-driven scheduling kernel built over it.
	clocks []engine.Time
	sched  sched

	// dirtyScratch backs scanDirty's per-core result slices, so barrier
	// and epoch flushes do not allocate afresh on every scan; relScratch
	// backs flushAllDirty's released-lines partition the same way.
	dirtyScratch [][]*cache.Line
	relScratch   [][]*cache.Line

	staticArena *mm.Arena

	// faults is the fault-injection plane; nil on the idealized machine.
	faults *fault.Plane

	stats Stats

	// obs is the observability layer; nil when disabled. Hooks guard on
	// the nil so a dark machine pays one branch per site.
	obs *obs.Observer

	// rec receives the memory-op stream at perform points; nil when the
	// machine is not being recorded.
	rec Recorder

	// hist receives the operation history while a run captures one
	// (CaptureHistory): the capturing OpRecorder, then rec's op-history
	// channel when rec has one. Empty otherwise.
	hist []OpRecorder

	// performSeq counts perform calls: a total order over all memory
	// operations in the scheduler's global virtual-time order, used to
	// order linearization points.
	performSeq uint64

	// perf is the host-side phase profiler; nil when disabled. Hot
	// paths guard on the nil so a dark machine pays one branch per site.
	perf *perf.Profiler
}

// New builds a machine from the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nvmCfg := cfg.NVM
	nvmCfg.LogEvents = cfg.TrackHB || nvmCfg.LogEvents
	s := &System{
		cfg:         cfg,
		mem:         mm.NewMemory(),
		nvm:         nvm.New(nvmCfg),
		llc:         cache.NewLLC(cfg.LLCSize, cfg.LLCWays, cfg.LLCBanks),
		dir:         cache.NewDirectory(cfg.Cores),
		llcSrv:      engine.NewServerBank(cfg.LLCBanks),
		stamps:      persist.NewStampArena(),
		staticArena: mm.StaticArena(),
		obs:         cfg.Obs,
		rec:         cfg.Rec,
		perf:        cfg.Perf,
	}
	if cfg.TrackHB {
		s.tracker = model.NewTracker(cfg.Cores)
	}
	if cfg.Faults.Enabled() {
		s.faults = fault.MustNew(cfg.Faults) // Validate ran above
		s.nvm.SetFaults(s.faults)
	}
	if s.obs != nil {
		s.nvm.SetObserver(s.obs)
		s.llc.SetObserver(s.obs)
		s.dir.SetObserver(s.obs)
	}
	s.l1s = make([]*cache.L1, cfg.Cores)
	s.threads = make([]*thread, cfg.Cores)
	s.clocks = make([]engine.Time, cfg.Cores)
	s.dirtyScratch = make([][]*cache.Line, cfg.Cores)
	s.relScratch = make([][]*cache.Line, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		s.l1s[i] = cache.NewL1(cfg.L1Size, cfg.L1Ways)
		s.threads[i] = &thread{
			id:     i,
			arena:  mm.ThreadArena(i),
			rng:    engine.NewRand(uint64(i) * 0x9e37),
			epochs: persist.NewEpochCounter(cfg.EpochBits),
			ret:    persist.NewRET(cfg.RETSize, cfg.RETWatermark),
		}
		if s.obs != nil {
			s.l1s[i].SetObserver(i, s.obs)
			s.threads[i].ret.SetObserver(i, s.obs)
		}
	}
	s.mech = mech.New(cfg.Mechanism, (*sysView)(s))
	if s.perf != nil {
		// Host-time attribution of the mechanism hooks: every dispatch
		// goes through the profiling decorator, so the machine's call
		// sites stay mechanism- and profiler-agnostic.
		s.mech = profiledMech{m: s.mech, p: s.perf}
	}
	return s, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// Mem exposes the architectural memory image (current visible values).
func (s *System) Mem() *mm.Memory { return s.mem }

// NVM exposes the NVM subsystem (persist log, stats).
func (s *System) NVM() *nvm.Subsystem { return s.nvm }

// Tracker exposes the happens-before tracker (nil unless TrackHB).
func (s *System) Tracker() *model.Tracker { return s.tracker }

// Stats returns a copy of the run counters.
func (s *System) Stats() Stats { return s.stats }

// Observer returns the attached observability layer (nil when disabled).
func (s *System) Observer() *obs.Observer { return s.obs }

// Perf returns the attached host-side phase profiler (nil when disabled).
func (s *System) Perf() *perf.Profiler { return s.perf }

// ArenaStats snapshots the stamp arena's host-side footprint.
func (s *System) ArenaStats() persist.ArenaStats { return s.stamps.Stats() }

// PublishArenaGauges exports the stamp arena's footprint into an obs
// metrics registry as host-side gauges ("host/arena_nodes",
// "host/arena_free_nodes", "host/arena_bytes"), alongside the phase
// profiler's host-time gauges. Nil-safe on the registry.
func (s *System) PublishArenaGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := s.stamps.Stats()
	reg.Gauge("host/arena_nodes").Set(int64(st.Nodes))
	reg.Gauge("host/arena_free_nodes").Set(int64(st.FreeNodes))
	reg.Gauge("host/arena_bytes").Set(int64(st.Bytes))
}

// Faults returns the fault-injection plane (nil on the idealized machine).
func (s *System) Faults() *fault.Plane { return s.faults }

// L1 exposes core i's private cache (tests and tooling).
func (s *System) L1(i int) *cache.L1 { return s.l1s[i] }

// LLC exposes the shared cache.
func (s *System) LLC() *cache.LLC { return s.llc }

// Mech exposes the active persistency mechanism.
func (s *System) Mech() mech.Mechanism { return s.mech }

// MechCrashCursor returns a fresh cursor over the mechanism's own durable
// state, nil when the mechanism holds none (the NVM log is then the whole
// story). A non-nil cursor owns the durable image: sweeps replay it into
// an empty image instead of walking the NVM log.
func (s *System) MechCrashCursor() mech.CrashCursor { return s.mech.NewCrashCursor() }

// MechCrashInstants returns extra crash boundaries the mechanism asks the
// sweep to probe: durability events it holds itself, invisible to the NVM
// persist log.
func (s *System) MechCrashInstants() []engine.Time { return s.mech.CrashInstants() }

// CrashImageAt reconstructs the durable memory image at instant at: the
// mechanism's own durable log replayed up to at when the mechanism holds
// one (eADR), the NVM persist log replayed up to at otherwise.
func (s *System) CrashImageAt(at engine.Time) *mm.Memory {
	if cur := s.mech.NewCrashCursor(); cur != nil {
		img := mm.NewMemory()
		cur.ApplyTo(img, at)
		return img
	}
	return s.nvm.ImageAt(at, nil)
}

// Time returns the maximum thread clock: the run's execution time.
func (s *System) Time() engine.Time {
	var max engine.Time
	for _, c := range s.clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// StaticAlloc reserves nwords in the static region (structure anchors).
func (s *System) StaticAlloc(nwords int) isa.Addr { return s.staticArena.Alloc(nwords) }

// --- topology & latency helpers ------------------------------------------

func (s *System) coreTile(core int) (int, int) {
	d := s.cfg.MeshDim
	return core % d, (core / d) % d
}

func (s *System) bankTile(bank int) (int, int) {
	d := s.cfg.MeshDim
	return bank % d, (bank / d) % d
}

// netLat is the one-way mesh latency between a core and an LLC bank.
func (s *System) netLat(core, bank int) engine.Time {
	cx, cy := s.coreTile(core)
	bx, by := s.bankTile(bank)
	dx, dy := cx-bx, cy-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return engine.Time(dx+dy) * s.cfg.HopLat
}

// --- persist plumbing ------------------------------------------------------

// persistL1Line issues the persist of an L1 line's current content on
// behalf of thread tid: the command reaches a controller at wall time
// now, may not start before earliest (epoch-ordering hold), hands its
// stamps to the persist log, clears the line's persistency metadata, and
// returns the ack time. critical classifies the persist for the Figure 6
// accounting.
func (s *System) persistL1Line(tid int, l *cache.Line, now, earliest engine.Time, critical bool) engine.Time {
	words := s.mem.ReadLine(l.Addr)
	if s.perf != nil {
		s.perf.Start(perf.PhaseNVM)
	}
	done := s.nvm.PersistLine(now, earliest, l.Addr, words)
	if s.perf != nil {
		s.perf.End()
	}
	if s.tracker != nil {
		l.ForEachStamp(s.stamps, func(st model.Stamp) {
			s.tracker.SetPersisted(st, done)
		})
	}
	if s.obs != nil {
		s.obs.PersistIssued(tid, uint64(l.Addr), now, done, critical)
	}
	l.ClearPersistMeta(s.stamps)
	l.FlushedUntil = int64(done)
	// Invariant I4 is structural: any line with a persist in flight is
	// held at the directory until the ack, whatever path issued it. The
	// per-mechanism blockLine calls tighten this with chained (epoch-
	// ordered) acks; without it, an eviction persist whose ack is delayed
	// (fault retry/backoff) would let another core read — and re-persist
	// behind — data that is not yet durable.
	s.blockLine(l.Addr, done)
	s.stats.Persists++
	if critical {
		s.stats.CriticalPersists++
	}
	return done
}

// persistAddr persists the current content of an arbitrary line address
// (LLC eviction under NOP, ARP buffer drains) with optional stamps, on
// behalf of thread tid (-1: no specific core, e.g. an LLC eviction).
func (s *System) persistAddr(tid int, addr isa.Addr, stamps []model.Stamp, now, earliest engine.Time, critical bool) engine.Time {
	words := s.mem.ReadLine(addr)
	if s.perf != nil {
		s.perf.Start(perf.PhaseNVM)
	}
	done := s.nvm.PersistLine(now, earliest, addr, words)
	if s.perf != nil {
		s.perf.End()
	}
	if s.tracker != nil {
		for _, st := range stamps {
			s.tracker.SetPersisted(st, done)
		}
	}
	if s.obs != nil {
		s.obs.PersistIssued(tid, uint64(addr), now, done, critical)
	}
	s.blockLine(addr, done)
	s.stats.Persists++
	if critical {
		s.stats.CriticalPersists++
	}
	return done
}

// persistAddrList is persistAddr for an arena-backed stamp chain (LLC
// evictions and drains under NOP): it marks each stamp persisted and
// returns the chain to the arena.
func (s *System) persistAddrList(tid int, addr isa.Addr, list *persist.StampList, now, earliest engine.Time, critical bool) engine.Time {
	words := s.mem.ReadLine(addr)
	if s.perf != nil {
		s.perf.Start(perf.PhaseNVM)
	}
	done := s.nvm.PersistLine(now, earliest, addr, words)
	if s.perf != nil {
		s.perf.End()
	}
	if s.tracker != nil {
		s.stamps.ForEach(*list, func(st model.Stamp) {
			s.tracker.SetPersisted(st, done)
		})
	}
	s.stamps.Free(list)
	if s.obs != nil {
		s.obs.PersistIssued(tid, uint64(addr), now, done, critical)
	}
	s.blockLine(addr, done)
	s.stats.Persists++
	if critical {
		s.stats.CriticalPersists++
	}
	return done
}

// blockLine records that the directory must hold requests to line until
// time t (Invariant I4 and §5.2.3's PutM transient state).
func (s *System) blockLine(line isa.Addr, t engine.Time) {
	p, created := s.lineBlocked.Upsert(uint64(line))
	if created || t > *p {
		*p = t
	}
}

func (s *System) lineAvailable(line isa.Addr, now engine.Time) engine.Time {
	if p := s.lineBlocked.Ptr(uint64(line)); p != nil && *p > now {
		return *p
	}
	return now
}

// stall accounts cycles thread tid spent blocked on persistency actions,
// attributed to a cause for the observability layer.
func (s *System) stall(tid int, cause obs.StallCause, from, to engine.Time) {
	if to > from {
		s.stats.StallCycles += uint64(to - from)
		if s.obs != nil {
			s.obs.Stall(tid, cause, from, to)
		}
	}
}

// faultStall injects an NVM-machinery stall (patrol scrub, wear-leveling
// move) in front of a persist-engine run by thread tid, returning the
// delayed start time. The delay shifts when the run's persists reach the
// controllers; every ordering hold travels with the returned time, so a
// stall widens the crash-vulnerable window without reordering persists.
func (s *System) faultStall(tid int, now engine.Time) engine.Time {
	if s.faults == nil {
		return now
	}
	d := s.faults.EngineStall(tid, now)
	if d <= 0 {
		return now
	}
	if s.obs != nil {
		s.obs.EngineStallInjected(tid, d)
	}
	return now + d
}

func (s *System) String() string {
	return fmt.Sprintf("memsys: %d cores, %s, %s NVM", s.cfg.Cores, s.cfg.Mechanism, s.nvm.Mode())
}
