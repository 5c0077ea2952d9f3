package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
)

// nopMech is volatile execution: no persistency ordering whatsoever.
// Dirty data reaches NVM only when the LLC evicts it, with no guarantees
// on order — a crash leaves an arbitrary (and generally unrecoverable)
// subset of writes durable. NOP is the paper's no-persistency baseline
// that every overhead is normalized against.
type nopMech struct {
	NoCrashState
	sv SystemView
}

func newNOP(sv SystemView) Mechanism { return &nopMech{sv: sv} }

func (m *nopMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	return now
}

func (m *nopMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	return now
}

func (m *nopMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time { return now }

func (m *nopMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time { return now }

func (m *nopMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time { return now }

func (m *nopMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	return now
}

func (m *nopMech) Drain(tid int, now engine.Time) engine.Time {
	// A clean shutdown still flushes caches so the final image is whole.
	return m.sv.FlushAllDirty(tid, now, false)
}

func (m *nopMech) LLCEvictPersists() bool { return true }
