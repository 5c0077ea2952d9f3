package obs

import (
	"fmt"

	"lrp/internal/engine"
)

// Config sizes an Observer for a machine's topology.
type Config struct {
	// Cores, LLCBanks and Controllers mirror the machine geometry; every
	// per-entity instrument family is pre-registered across them.
	Cores       int
	LLCBanks    int
	Controllers int
	// EnableTrace attaches an event tracer (metrics are always on).
	EnableTrace bool
}

// Observer is the machine's observability attachment: a registry of
// pre-registered instruments plus an optional tracer, exposed to the
// machine layers through typed hooks. Every hook tolerates a nil
// receiver, so call sites may be written without a guard; hot paths still
// guard explicitly to skip argument computation when disabled.
type Observer struct {
	reg   *Registry
	trace *Tracer

	// Per-core instrument families.
	persistLat  []*Histogram // persist issue→ack latency
	persistCnt  []*Counter
	critCnt     []*Counter
	scanLen     []*Histogram // persist-engine scan: dirty lines examined
	scanRel     []*Histogram // persist-engine scan: releases persisted
	retOcc      []*Histogram // RET occupancy observed at each insert
	retRes      []*Histogram // RET residency: cycles from insert to squash
	retFlush    []*Counter   // watermark-triggered drains
	epochAdv    []*Counter
	epochOvf    []*Counter
	l1Evict     []*Counter
	l1EvictDirt []*Counter

	// Per-core × per-cause families.
	stallCyc  [numStallCauses][]*Counter
	downgrade [numDowngradeCauses][]*Counter

	// Per-LLC-bank and per-controller families.
	llcHit    []*Counter
	llcMiss   []*Counter
	nvmPersis []*Counter
	nvmRead   []*Counter
	nvmQDelay []*Histogram // cycles a persist waited for its controller

	// Fault-injection families (all zero unless a fault plane is attached).
	nvmRetry    []*Counter   // injected-fault retries absorbed per controller
	nvmGiveup   []*Counter   // retry budgets exhausted per controller
	nvmBackoff  []*Histogram // per-access total backoff cycles
	stallInj    []*Counter   // injected persist-engine stalls per core
	stallInjCyc []*Counter   // their total injected cycles

	// Machine-wide.
	dirEntries *Counter
	dirInval   *Counter
	faultTears *Counter // torn-line applications during image reconstruction
	recQuar    *Counter // nodes quarantined by recovery walks

	// Trace-capture/replay I/O (host-side tooling work, not simulated
	// events; the recording itself never changes simulated timing).
	traceOpsRec   *Counter // op records captured
	traceRawBytes *Counter // uncompressed record-stream bytes
	traceOutBytes *Counter // bytes written to the trace file (compressed)
	traceOpsRep   *Counter // op records replayed
	traceCompress *Gauge   // compression ratio ×100 (raw/written)
	traceRepRate  *Gauge   // replay throughput, ops/second (host wall time)
}

// New builds an Observer for the given topology with every instrument
// family pre-registered, so hot-path hooks never touch the registry lock.
func New(cfg Config) *Observer {
	if cfg.Cores <= 0 {
		panic("obs: observer needs at least one core")
	}
	if cfg.LLCBanks <= 0 {
		cfg.LLCBanks = 1
	}
	if cfg.Controllers <= 0 {
		cfg.Controllers = 1
	}
	o := &Observer{reg: NewRegistry()}
	if cfg.EnableTrace {
		o.trace = NewTracer(cfg.Cores, 0)
	}
	perCoreC := func(name string) []*Counter {
		cs := make([]*Counter, cfg.Cores)
		for i := range cs {
			cs[i] = o.reg.Counter(fmt.Sprintf("%s/core%02d", name, i))
		}
		return cs
	}
	perCoreH := func(name string) []*Histogram {
		hs := make([]*Histogram, cfg.Cores)
		for i := range hs {
			hs[i] = o.reg.Histogram(fmt.Sprintf("%s/core%02d", name, i))
		}
		return hs
	}
	o.persistLat = perCoreH("persist/latency")
	o.persistCnt = perCoreC("persist/issued")
	o.critCnt = perCoreC("persist/critical")
	o.scanLen = perCoreH("engine/scan_len")
	o.scanRel = perCoreH("engine/scan_releases")
	o.retOcc = perCoreH("ret/occupancy")
	o.retRes = perCoreH("ret/residency")
	o.retFlush = perCoreC("ret/watermark_flushes")
	o.epochAdv = perCoreC("epoch/advances")
	o.epochOvf = perCoreC("epoch/overflows")
	o.l1Evict = perCoreC("l1/evictions")
	o.l1EvictDirt = perCoreC("l1/dirty_evictions")
	for c := StallCause(0); c < numStallCauses; c++ {
		o.stallCyc[c] = perCoreC("stall/" + c.String() + "_cycles")
	}
	for c := DowngradeCause(0); c < numDowngradeCauses; c++ {
		o.downgrade[c] = perCoreC("downgrade/" + c.String())
	}
	o.llcHit = make([]*Counter, cfg.LLCBanks)
	o.llcMiss = make([]*Counter, cfg.LLCBanks)
	for i := range o.llcHit {
		o.llcHit[i] = o.reg.Counter(fmt.Sprintf("llc/hits/bank%02d", i))
		o.llcMiss[i] = o.reg.Counter(fmt.Sprintf("llc/misses/bank%02d", i))
	}
	o.nvmPersis = make([]*Counter, cfg.Controllers)
	o.nvmRead = make([]*Counter, cfg.Controllers)
	o.nvmQDelay = make([]*Histogram, cfg.Controllers)
	o.nvmRetry = make([]*Counter, cfg.Controllers)
	o.nvmGiveup = make([]*Counter, cfg.Controllers)
	o.nvmBackoff = make([]*Histogram, cfg.Controllers)
	for i := range o.nvmPersis {
		o.nvmPersis[i] = o.reg.Counter(fmt.Sprintf("nvm/persists/ctrl%d", i))
		o.nvmRead[i] = o.reg.Counter(fmt.Sprintf("nvm/reads/ctrl%d", i))
		o.nvmQDelay[i] = o.reg.Histogram(fmt.Sprintf("nvm/queue_delay/ctrl%d", i))
		o.nvmRetry[i] = o.reg.Counter(fmt.Sprintf("nvm/retries/ctrl%d", i))
		o.nvmGiveup[i] = o.reg.Counter(fmt.Sprintf("nvm/giveups/ctrl%d", i))
		o.nvmBackoff[i] = o.reg.Histogram(fmt.Sprintf("nvm/backoff/ctrl%d", i))
	}
	o.stallInj = perCoreC("fault/engine_stalls")
	o.stallInjCyc = perCoreC("fault/engine_stall_cycles")
	o.dirEntries = o.reg.Counter("dir/entries_created")
	o.dirInval = o.reg.Counter("dir/invalidations")
	o.faultTears = o.reg.Counter("fault/tears")
	o.recQuar = o.reg.Counter("recovery/quarantined_nodes")
	o.traceOpsRec = o.reg.Counter("trace/ops_recorded")
	o.traceRawBytes = o.reg.Counter("trace/bytes_raw")
	o.traceOutBytes = o.reg.Counter("trace/bytes_written")
	o.traceOpsRep = o.reg.Counter("trace/ops_replayed")
	o.traceCompress = o.reg.Gauge("trace/compression_x100")
	o.traceRepRate = o.reg.Gauge("trace/replay_ops_per_sec")
	return o
}

// Registry exposes the metrics registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer exposes the event tracer, nil when tracing is disabled.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.trace
}

// clampCore guards per-core slice indexing: tools may report core -1
// (machine-wide actors such as LLC evictions under NOP).
func clampCore(cs int, core int) (int, bool) {
	if core < 0 || core >= cs {
		return 0, false
	}
	return core, true
}

// PersistIssued records one line persist: issued at now, acked at done.
func (o *Observer) PersistIssued(core int, line uint64, now, done engine.Time, critical bool) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.persistCnt), core); ok {
		o.persistCnt[i].Inc()
		o.persistLat[i].Observe(uint64(done - now))
		if critical {
			o.critCnt[i].Inc()
		}
	}
	if o.trace != nil {
		var crit uint64
		if critical {
			crit = 1
		}
		o.trace.Record(Event{TS: now, Dur: done - now, Kind: EvPersist, Core: int32(core), Arg: line, Arg2: crit})
	}
}

// EngineScan records one persist-engine L1 scan: scanned dirty lines of
// which releases were persisted in epoch order.
func (o *Observer) EngineScan(core int, scanned, releases int, now engine.Time) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.scanLen), core); ok {
		o.scanLen[i].Observe(uint64(scanned))
		o.scanRel[i].Observe(uint64(releases))
	}
	if o.trace != nil {
		o.trace.Record(Event{TS: now, Kind: EvEngineScan, Core: int32(core), Arg: uint64(scanned), Arg2: uint64(releases)})
	}
}

// EpochAdvance records a thread epoch advance (a release executed).
func (o *Observer) EpochAdvance(core int, epoch uint32, now engine.Time) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.epochAdv), core); ok {
		o.epochAdv[i].Inc()
	}
	if o.trace != nil {
		o.trace.Record(Event{TS: now, Kind: EvEpochAdvance, Core: int32(core), Arg: uint64(epoch)})
	}
}

// EpochOverflow records an epoch-counter wraparound flush.
func (o *Observer) EpochOverflow(core int, now engine.Time) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.epochOvf), core); ok {
		o.epochOvf[i].Inc()
	}
	if o.trace != nil {
		o.trace.Record(Event{TS: now, Kind: EvEpochOverflow, Core: int32(core)})
	}
}

// RETAdd records a RET insert and the resulting occupancy.
func (o *Observer) RETAdd(core int, occupancy int) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.retOcc), core); ok {
		o.retOcc[i].Observe(uint64(occupancy))
	}
}

// RETRemove records a RET squash and how long the entry was resident.
func (o *Observer) RETRemove(core int, residency engine.Time) {
	if o == nil {
		return
	}
	if residency < 0 {
		residency = 0
	}
	if i, ok := clampCore(len(o.retRes), core); ok {
		o.retRes[i].Observe(uint64(residency))
	}
}

// RETDrain records a watermark-triggered drain of the oldest release.
func (o *Observer) RETDrain(core int, line uint64, now engine.Time) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.retFlush), core); ok {
		o.retFlush[i].Inc()
	}
	if o.trace != nil {
		o.trace.Record(Event{TS: now, Kind: EvRETDrain, Core: int32(core), Arg: line})
	}
}

// Downgrade records a dirty-line forward between L1s, attributed to the
// owning core, with the cause that determined its cost.
func (o *Observer) Downgrade(ownerCore int, line uint64, cause DowngradeCause, now engine.Time) {
	if o == nil {
		return
	}
	if int(cause) >= int(numDowngradeCauses) {
		cause = DowngradeClean
	}
	if i, ok := clampCore(len(o.downgrade[cause]), ownerCore); ok {
		o.downgrade[cause][i].Inc()
	}
	if o.trace != nil {
		o.trace.Record(Event{TS: now, Kind: EvDowngrade, Core: int32(ownerCore), Arg: line, Arg2: uint64(cause)})
	}
}

// Stall records a span core spent blocked on persistency ([from, to)).
func (o *Observer) Stall(core int, cause StallCause, from, to engine.Time) {
	if o == nil || to <= from {
		return
	}
	if int(cause) >= int(numStallCauses) {
		cause = StallWrite
	}
	if i, ok := clampCore(len(o.stallCyc[cause]), core); ok {
		o.stallCyc[cause][i].Add(uint64(to - from))
	}
	if o.trace != nil {
		o.trace.Record(Event{TS: from, Dur: to - from, Kind: EvStall, Core: int32(core), Arg: uint64(cause)})
	}
}

// L1Eviction records a capacity eviction from a core's L1 (metrics only:
// the cache layer has no clock; the timed trace event comes from the
// protocol layer via DirtyEviction).
func (o *Observer) L1Eviction(core int, dirty bool) {
	if o == nil {
		return
	}
	if i, ok := clampCore(len(o.l1Evict), core); ok {
		o.l1Evict[i].Inc()
		if dirty {
			o.l1EvictDirt[i].Inc()
		}
	}
}

// DirtyEviction records the trace instant of a Modified line leaving an
// L1 for capacity reasons (Invariant I1 territory).
func (o *Observer) DirtyEviction(core int, line uint64, now engine.Time) {
	if o == nil || o.trace == nil {
		return
	}
	o.trace.Record(Event{TS: now, Kind: EvEvict, Core: int32(core), Arg: line})
}

// LLCAccess records a demand access at an LLC bank.
func (o *Observer) LLCAccess(bank int, hit bool) {
	if o == nil {
		return
	}
	if bank < 0 || bank >= len(o.llcHit) {
		return
	}
	if hit {
		o.llcHit[bank].Inc()
	} else {
		o.llcMiss[bank].Inc()
	}
}

// NVMPersist records one persist at a controller and the cycles it waited
// in the controller queue before service.
func (o *Observer) NVMPersist(ctrl int, queueDelay engine.Time) {
	if o == nil {
		return
	}
	if ctrl < 0 || ctrl >= len(o.nvmPersis) {
		return
	}
	o.nvmPersis[ctrl].Inc()
	if queueDelay < 0 {
		queueDelay = 0
	}
	o.nvmQDelay[ctrl].Observe(uint64(queueDelay))
}

// NVMRead records one line fill served by a controller.
func (o *Observer) NVMRead(ctrl int) {
	if o == nil {
		return
	}
	if ctrl < 0 || ctrl >= len(o.nvmRead) {
		return
	}
	o.nvmRead[ctrl].Inc()
}

// NVMRetry records injected-fault retries a controller absorbed on one
// access, with the total backoff delay they cost.
func (o *Observer) NVMRetry(ctrl int, retries int, backoff engine.Time) {
	if o == nil {
		return
	}
	if ctrl < 0 || ctrl >= len(o.nvmRetry) {
		return
	}
	o.nvmRetry[ctrl].Add(uint64(retries))
	if backoff < 0 {
		backoff = 0
	}
	o.nvmBackoff[ctrl].Observe(uint64(backoff))
}

// NVMGiveup records an access that exhausted its retry budget and was
// escalated (line remapped to a spare block).
func (o *Observer) NVMGiveup(ctrl int) {
	if o == nil {
		return
	}
	if ctrl < 0 || ctrl >= len(o.nvmGiveup) {
		return
	}
	o.nvmGiveup[ctrl].Inc()
}

// FaultTear records a torn-line application during crash-image
// reconstruction.
func (o *Observer) FaultTear() {
	if o == nil {
		return
	}
	o.faultTears.Inc()
}

// EngineStallInjected records an injected persist-engine stall on a core
// and its length.
func (o *Observer) EngineStallInjected(core int, d engine.Time) {
	if o == nil || d <= 0 {
		return
	}
	if i, ok := clampCore(len(o.stallInj), core); ok {
		o.stallInj[i].Inc()
		o.stallInjCyc[i].Add(uint64(d))
	}
}

// RecoveryQuarantine records nodes a recovery walk quarantined.
func (o *Observer) RecoveryQuarantine(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.recQuar.Add(uint64(n))
}

// DirEntryCreated records a directory entry materializing on first touch.
func (o *Observer) DirEntryCreated() {
	if o == nil {
		return
	}
	o.dirEntries.Inc()
}

// DirInvalidation records one sharer-invalidation message.
func (o *Observer) DirInvalidation() {
	if o == nil {
		return
	}
	o.dirInval.Inc()
}

// TraceRecorded records a finished trace capture: op records written,
// their uncompressed encoding size, and the bytes that reached the
// trace file after compression.
func (o *Observer) TraceRecorded(ops, rawBytes, writtenBytes uint64) {
	if o == nil {
		return
	}
	o.traceOpsRec.Add(ops)
	o.traceRawBytes.Add(rawBytes)
	o.traceOutBytes.Add(writtenBytes)
	if writtenBytes > 0 {
		o.traceCompress.Set(int64(rawBytes * 100 / writtenBytes))
	}
}

// TraceReplayed records a finished trace replay: op records driven into
// the machine and the host-side throughput achieved.
func (o *Observer) TraceReplayed(ops, opsPerSec uint64) {
	if o == nil {
		return
	}
	o.traceOpsRep.Add(ops)
	o.traceRepRate.Set(int64(opsPerSec))
}

// CrashSnapshot records a crash-analysis instant: how many of the
// execution's writes were durable at the reconstructed crash time.
func (o *Observer) CrashSnapshot(at engine.Time, persisted, total uint64) {
	if o == nil || o.trace == nil {
		return
	}
	o.trace.Record(Event{TS: at, Kind: EvCrash, Core: -1, Arg: persisted, Arg2: total})
}
