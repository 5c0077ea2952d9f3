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

// Stats aggregates run-level counters across the machine: sums over the
// rows of its counter block (System.Counts).
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
	// actions (write conflicts and backpressure, I1 evictions, I2/I3
	// waits).
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

	// cnt is the machine's event-counter block: every machine event is
	// counted here once, always on.
	cnt *obs.Counts

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
	cnt := obs.NewCounts(cfg.Cores, cfg.LLCBanks, cfg.NVM.Controllers)
	s := &System{
		cfg:         cfg,
		cnt:         cnt,
		mem:         mm.NewMemory(),
		nvm:         nvm.New(cfg.NVM, cfg.TrackHB, cnt),
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
		s.publish(s.obs.Registry())
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

// Counts exposes the machine's event-counter block.
func (s *System) Counts() *obs.Counts { return s.cnt }

// Stats sums the counter block's core rows, the machine-wide row
// included, into the run-level counters.
func (s *System) Stats() Stats {
	var st Stats
	for i := range s.cnt.Core {
		r := &s.cnt.Core[i]
		st.Ops += r.Ops
		st.Persists += r.Persists
		st.CriticalPersists += r.CriticalPersists
		for _, c := range r.StallCycles {
			st.StallCycles += c
		}
		for _, d := range r.Downgrades {
			st.Downgrades += d
		}
		st.Writebacks += r.L1DirtyEvictions
		st.RETWatermarkFlushes += r.RETWatermarkFlushes
		st.EpochOverflows += r.EpochOverflows
		st.I2Stalls += r.I2Stalls
		st.I2Cycles += r.I2Cycles
		st.EngineScans += r.EngineScans
		st.EngineReleases += r.EngineReleases
	}
	st.Writebacks += st.Downgrades
	return st
}

// FaultStats sums the fault plane's decisions out of the counter block:
// engine stalls from the core rows, rejections from the controller rows.
func (s *System) FaultStats() fault.Stats {
	var st fault.Stats
	for i := range s.cnt.Core {
		st.Stalls += s.cnt.Core[i].EngineStalls
		st.StallCycles += s.cnt.Core[i].EngineStallCycles
	}
	for _, c := range s.cnt.Ctrl {
		st.WriteFaults += c.WriteFaults
		st.ReadFaults += c.ReadFaults
	}
	return st
}

// publish registers the machine-count families of the lrpmetrics/v1
// export in reg, as read-through views of the counter block. Per-core
// families cover the cores' rows; the machine-wide row has none.
// dir/entries_created reads the directory's size, which only grows.
func (s *System) publish(reg *obs.Registry) {
	c := s.cnt
	perCore := func(name string, read func(*obs.CoreCounts) uint64) {
		for i := 0; i < s.cfg.Cores; i++ {
			r := &c.Core[i]
			reg.View(fmt.Sprintf("%s/core%02d", name, i), func() uint64 { return read(r) })
		}
	}
	perCore("persist/issued", func(r *obs.CoreCounts) uint64 { return r.Persists })
	perCore("persist/critical", func(r *obs.CoreCounts) uint64 { return r.CriticalPersists })
	perCore("ret/watermark_flushes", func(r *obs.CoreCounts) uint64 { return r.RETWatermarkFlushes })
	perCore("epoch/advances", func(r *obs.CoreCounts) uint64 { return r.EpochAdvances })
	perCore("epoch/overflows", func(r *obs.CoreCounts) uint64 { return r.EpochOverflows })
	perCore("l1/evictions", func(r *obs.CoreCounts) uint64 { return r.L1Evictions })
	perCore("l1/dirty_evictions", func(r *obs.CoreCounts) uint64 { return r.L1DirtyEvictions })
	perCore("fault/engine_stalls", func(r *obs.CoreCounts) uint64 { return r.EngineStalls })
	perCore("fault/engine_stall_cycles", func(r *obs.CoreCounts) uint64 { return r.EngineStallCycles })
	for cause := obs.StallCause(0); cause < obs.NumStallCauses; cause++ {
		perCore("stall/"+cause.String()+"_cycles", func(r *obs.CoreCounts) uint64 { return r.StallCycles[cause] })
	}
	for cause := obs.DowngradeCause(0); cause < obs.NumDowngradeCauses; cause++ {
		perCore("downgrade/"+cause.String(), func(r *obs.CoreCounts) uint64 { return r.Downgrades[cause] })
	}
	for i := range c.Bank {
		b := &c.Bank[i]
		reg.View(fmt.Sprintf("llc/hits/bank%02d", i), func() uint64 { return b.LLCHits })
		reg.View(fmt.Sprintf("llc/misses/bank%02d", i), func() uint64 { return b.LLCMisses })
	}
	for i := range c.Ctrl {
		n := &c.Ctrl[i]
		reg.View(fmt.Sprintf("nvm/persists/ctrl%d", i), func() uint64 { return n.Persists })
		reg.View(fmt.Sprintf("nvm/reads/ctrl%d", i), func() uint64 { return n.Reads })
		reg.View(fmt.Sprintf("nvm/retries/ctrl%d", i), func() uint64 { return n.Retries })
		reg.View(fmt.Sprintf("nvm/giveups/ctrl%d", i), func() uint64 { return n.Giveups })
	}
	reg.View("dir/entries_created", func() uint64 { return uint64(s.dir.Len()) })
	reg.View("dir/invalidations", func() uint64 { return c.DirInvalidations })
	reg.View("fault/tears", c.Tears.Load)
}

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

// CrashImages returns a fresh durable-image source, advanced monotonically
// through crash instants like nvm.Cursor.AdvanceTo: it replays the
// mechanism's own durable log when the mechanism holds one (eADR) and the
// NVM persist log otherwise. The image it returns aliases the source's
// working memory and is valid until its next call.
func (s *System) CrashImages() func(at engine.Time) *mm.Memory {
	if cur := s.mech.NewCrashCursor(); cur != nil {
		img := mm.NewMemory()
		return func(at engine.Time) *mm.Memory {
			cur.ApplyTo(img, at)
			return img
		}
	}
	return s.nvm.NewCursor(nil).AdvanceTo
}

// CrashImageAt reconstructs the durable memory image at instant at from a
// fresh CrashImages source.
func (s *System) CrashImageAt(at engine.Time) *mm.Memory { return s.CrashImages()(at) }

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
// behalf of thread tid (see issuePersist), hands the line's stamps to the
// persist log and clears its persistency metadata.
func (s *System) persistL1Line(tid int, l *cache.Line, now, earliest engine.Time, critical bool) engine.Time {
	done := s.issuePersist(tid, l.Addr, now, earliest, critical)
	if s.tracker != nil {
		l.ForEachStamp(s.stamps, func(st model.Stamp) {
			s.persisted(st, l.Addr, done)
		})
	}
	l.ClearPersistMeta(s.stamps)
	l.FlushedUntil = int64(done)
	return done
}

// persistAddr persists the current content of an arbitrary line address
// (LLC eviction under NOP, ARP buffer drains) with optional stamps, on
// behalf of thread tid (-1: no specific core, e.g. an LLC eviction).
func (s *System) persistAddr(tid int, addr isa.Addr, stamps []model.Stamp, now, earliest engine.Time, critical bool) engine.Time {
	done := s.issuePersist(tid, addr, now, earliest, critical)
	if s.tracker != nil {
		for _, st := range stamps {
			s.persisted(st, addr, done)
		}
	}
	return done
}

// persistAddrList is persistAddr for an arena-backed stamp chain (LLC
// evictions and drains under NOP): it marks each stamp persisted and
// returns the chain to the arena.
func (s *System) persistAddrList(tid int, addr isa.Addr, list *persist.StampList, now, earliest engine.Time, critical bool) engine.Time {
	done := s.issuePersist(tid, addr, now, earliest, critical)
	if s.tracker != nil {
		s.stamps.ForEach(*list, func(st model.Stamp) {
			s.persisted(st, addr, done)
		})
	}
	s.stamps.Free(list)
	return done
}

// persisted marks write st durable as of the persist of line acked at
// done. When the fault plane tears that persist, a crash while it is in
// flight already holds the words the tear carries (nvm.Cursor), so a
// write among them is durable from the persist's start.
func (s *System) persisted(st model.Stamp, line isa.Addr, done engine.Time) {
	s.tracker.SetPersisted(st, done)
	if mask, torn := s.faults.TornWords(line.Line(), done); torn {
		s.tracker.SetTorn(st, s.nvm.StartOf(done), mask)
	}
}

// issuePersist is the machine's one line-persist path: it captures the
// line's current content, hands it to the NVM controllers (the command
// arrives at wall time now and may not start before earliest, the
// epoch-ordering hold), and returns the ack time. critical classifies the
// persist for the Figure 6 accounting.
//
// Invariant I4 is enforced here, once: the directory holds the line until
// this persist acks, whatever path issued it. Mechanisms add holds only
// for a different ack (a persist already in flight, a drain horizon);
// without this one, an eviction persist whose ack is delayed (fault
// retry/backoff) would let another core read — and re-persist behind —
// data that is not yet durable.
func (s *System) issuePersist(tid int, addr isa.Addr, now, earliest engine.Time, critical bool) engine.Time {
	words := s.mem.ReadLine(addr)
	if s.perf != nil {
		s.perf.Start(perf.PhaseNVM)
	}
	done := s.nvm.PersistLine(now, earliest, addr, words)
	if s.perf != nil {
		s.perf.End()
	}
	if s.obs != nil {
		s.obs.PersistIssued(tid, uint64(addr), now, done, critical)
	}
	s.blockLine(addr, done)
	r := s.cnt.Row(tid)
	r.Persists++
	if critical {
		r.CriticalPersists++
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
// attributed to a cause.
func (s *System) stall(tid int, cause obs.StallCause, from, to engine.Time) {
	if to > from {
		s.cnt.Core[tid].StallCycles[cause] += uint64(to - from)
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
	r := &s.cnt.Core[tid]
	r.EngineStalls++
	r.EngineStallCycles += uint64(d)
	return now + d
}

func (s *System) String() string {
	return fmt.Sprintf("memsys: %d cores, %s, %s NVM", s.cfg.Cores, s.cfg.Mechanism, s.nvm.Mode())
}
