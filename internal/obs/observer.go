package obs

import (
	"fmt"

	"lrp/internal/engine"
)

// Config sizes an Observer for a machine's topology.
type Config struct {
	// Cores and Controllers mirror the machine geometry; every per-entity
	// histogram family is pre-registered across them.
	Cores       int
	Controllers int
	// EnableTrace attaches an event tracer (metrics are always on).
	EnableTrace bool
}

// Observer is the machine's optional observability attachment: the
// histograms, the tracer and the host-side tooling counters, exposed to
// the machine layers through typed hooks. Machine event counts are not
// here: the machine keeps them in its Counts block and registers their
// families in this Observer's registry as views when it is built. Every
// hook tolerates a nil receiver, so call sites may be written without a
// guard; hot paths still guard explicitly to skip argument computation
// when disabled.
type Observer struct {
	reg   *Registry
	trace *Tracer

	// Per-core histograms.
	persistLat []*Histogram // persist issue→ack latency
	scanLen    []*Histogram // persist-engine scan: dirty lines examined
	scanRel    []*Histogram // persist-engine scan: releases persisted
	retOcc     []*Histogram // RET occupancy observed at each insert
	retRes     []*Histogram // RET residency: cycles from insert to squash

	// Per-controller histograms.
	nvmQDelay  []*Histogram // cycles a persist waited for its controller
	nvmBackoff []*Histogram // per-access total fault-retry backoff cycles

	// Host-side tooling counters.
	recQuar *Counter // nodes quarantined by recovery walks

	// Trace-capture/replay I/O (host-side tooling work, not simulated
	// events; the recording itself never changes simulated timing).
	traceOpsRec   *Counter // op records captured
	traceRawBytes *Counter // uncompressed record-stream bytes
	traceOutBytes *Counter // bytes written to the trace file (compressed)
	traceOpsRep   *Counter // op records replayed
	traceCompress *Gauge   // compression ratio ×100 (raw/written)
	traceRepRate  *Gauge   // replay throughput, ops/second (host wall time)
}

// New builds an Observer for the given topology with every histogram
// pre-registered, so hot-path hooks never touch the registry lock.
func New(cfg Config) *Observer {
	if cfg.Cores <= 0 {
		panic("obs: observer needs at least one core")
	}
	if cfg.Controllers <= 0 {
		cfg.Controllers = 1
	}
	o := &Observer{reg: NewRegistry()}
	if cfg.EnableTrace {
		o.trace = NewTracer(cfg.Cores, 0)
	}
	perEntity := func(format string, n int) []*Histogram {
		hs := make([]*Histogram, n)
		for i := range hs {
			hs[i] = o.reg.Histogram(fmt.Sprintf(format, i))
		}
		return hs
	}
	o.persistLat = perEntity("persist/latency/core%02d", cfg.Cores)
	o.scanLen = perEntity("engine/scan_len/core%02d", cfg.Cores)
	o.scanRel = perEntity("engine/scan_releases/core%02d", cfg.Cores)
	o.retOcc = perEntity("ret/occupancy/core%02d", cfg.Cores)
	o.retRes = perEntity("ret/residency/core%02d", cfg.Cores)
	o.nvmQDelay = perEntity("nvm/queue_delay/ctrl%d", cfg.Controllers)
	o.nvmBackoff = perEntity("nvm/backoff/ctrl%d", cfg.Controllers)
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
	if i, ok := clampCore(len(o.persistLat), core); ok {
		o.persistLat[i].Observe(uint64(done - now))
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

// record adds an event to the trace, if one is attached.
func (o *Observer) record(e Event) {
	if o != nil && o.trace != nil {
		o.trace.Record(e)
	}
}

// EpochAdvance traces a thread epoch advance (a release executed).
func (o *Observer) EpochAdvance(core int, epoch uint32, now engine.Time) {
	o.record(Event{TS: now, Kind: EvEpochAdvance, Core: int32(core), Arg: uint64(epoch)})
}

// EpochOverflow traces an epoch-counter wraparound flush.
func (o *Observer) EpochOverflow(core int, now engine.Time) {
	o.record(Event{TS: now, Kind: EvEpochOverflow, Core: int32(core)})
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

// RETDrain traces a watermark-triggered drain of the oldest release.
func (o *Observer) RETDrain(core int, line uint64, now engine.Time) {
	o.record(Event{TS: now, Kind: EvRETDrain, Core: int32(core), Arg: line})
}

// Downgrade traces a dirty-line forward between L1s, attributed to the
// owning core, with the cause that determined its cost.
func (o *Observer) Downgrade(ownerCore int, line uint64, cause DowngradeCause, now engine.Time) {
	o.record(Event{TS: now, Kind: EvDowngrade, Core: int32(ownerCore), Arg: line, Arg2: uint64(cause)})
}

// Stall traces a span core spent blocked on persistency ([from, to)).
func (o *Observer) Stall(core int, cause StallCause, from, to engine.Time) {
	if to > from {
		o.record(Event{TS: from, Dur: to - from, Kind: EvStall, Core: int32(core), Arg: uint64(cause)})
	}
}

// DirtyEviction traces a Modified line leaving an L1 for capacity
// reasons (Invariant I1 territory).
func (o *Observer) DirtyEviction(core int, line uint64, now engine.Time) {
	o.record(Event{TS: now, Kind: EvEvict, Core: int32(core), Arg: line})
}

// NVMPersist records the cycles one persist waited in its controller's
// queue before service.
func (o *Observer) NVMPersist(ctrl int, queueDelay engine.Time) {
	if o == nil || ctrl < 0 || ctrl >= len(o.nvmQDelay) {
		return
	}
	if queueDelay < 0 {
		queueDelay = 0
	}
	o.nvmQDelay[ctrl].Observe(uint64(queueDelay))
}

// NVMRetry records the total backoff the injected-fault retries of one
// access cost at a controller.
func (o *Observer) NVMRetry(ctrl int, backoff engine.Time) {
	if o == nil || ctrl < 0 || ctrl >= len(o.nvmBackoff) {
		return
	}
	if backoff < 0 {
		backoff = 0
	}
	o.nvmBackoff[ctrl].Observe(uint64(backoff))
}

// RecoveryQuarantine records nodes a recovery walk quarantined.
func (o *Observer) RecoveryQuarantine(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.recQuar.Add(uint64(n))
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
	o.record(Event{TS: at, Kind: EvCrash, Core: -1, Arg: persisted, Arg2: total})
}
