package memsys

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/model"
	"lrp/internal/perf"
)

// profiledMech wraps the active persistency mechanism so every timing
// hook runs inside a PhaseMechanism region of the host-side profiler.
// Installed by New only when Config.Perf is set, so an unprofiled
// machine dispatches straight to the mechanism with no indirection.
// Capability queries and the crash-image contract are pure state reads
// on cold paths and pass through untimed.
type profiledMech struct {
	m mech.Mechanism
	p *perf.Profiler
}

func (w profiledMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.OnWrite(tid, l, release, now)
	w.p.End()
	return t
}

func (w profiledMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.OnStamped(tid, l, addr, val, st, release, now)
	w.p.End()
	return t
}

func (w profiledMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.OnAcquire(tid, addr, now)
	w.p.End()
	return t
}

func (w profiledMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.OnRMWAcquire(tid, l, now)
	w.p.End()
	return t
}

func (w profiledMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.OnEvict(tid, l, now)
	w.p.End()
	return t
}

func (w profiledMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.OnDowngrade(ownerTid, reqTid, l, now)
	w.p.End()
	return t
}

func (w profiledMech) Drain(tid int, now engine.Time) engine.Time {
	w.p.Start(perf.PhaseMechanism)
	t := w.m.Drain(tid, now)
	w.p.End()
	return t
}

func (w profiledMech) LLCEvictPersists() bool           { return w.m.LLCEvictPersists() }
func (w profiledMech) NewCrashCursor() mech.CrashCursor { return w.m.NewCrashCursor() }
func (w profiledMech) CrashInstants() []engine.Time     { return w.m.CrashInstants() }

var _ mech.Mechanism = profiledMech{}
