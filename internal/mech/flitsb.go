package mech

import (
	"sort"

	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/persist"
)

// flitMech ("FliT-SB") is a FliT-inspired strict baseline (Wei et al.,
// PPoPP'22): it keeps SB's synchronous discipline — everything a thread
// wrote persists before its release, the release itself persists before
// the thread proceeds — but replaces SB's persist-everything full barrier
// with software per-line dirty tracking. Each thread records the line
// addresses it has written since its last release; the pre-release
// barrier walks only that set and skips every line some invariant
// (eviction, downgrade, acquire-RMW) already persisted — the redundant-
// flush elision that is FliT's core idea. Inter-thread dependencies
// persist just the forwarded line (synchronously, like SB's per-line
// waits) rather than the owner's whole dirty set: a reader never observes
// data that is not yet durable, so no consumer can out-persist anything
// it read.
type flitMech struct {
	NoCrashState
	sv SystemView

	// tracked is each thread's sorted set of line addresses written
	// since its last flush. Entries persisted early by an invariant stay
	// until the next flush, which skips them as clean — the elision.
	tracked [][]isa.Addr
}

func newFliTSB(sv SystemView) Mechanism {
	return &flitMech{sv: sv, tracked: make([][]isa.Addr, sv.Cores())}
}

func (m *flitMech) Kind() persist.Kind { return FliTSB }

func (m *flitMech) track(tid int, a isa.Addr) {
	s := m.tracked[tid]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= a })
	if i < len(s) && s[i] == a {
		return
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = a
	m.tracked[tid] = s
}

// flushTracked is the pre-release barrier: persist every tracked line
// still holding unpersisted data (concurrently; address order from the
// sorted set) and wait for all acks, including persists already in
// flight. Tracked lines an invariant already persisted — or that left
// the L1, necessarily persisting on the way out — are skipped.
func (m *flitMech) flushTracked(tid int, now engine.Time, critical bool) engine.Time {
	sv := m.sv
	now = sv.FaultStall(tid, now)
	pending := sv.Pending(tid)
	horizon := pending.MaxTime(now)
	for _, a := range m.tracked[tid] {
		l := sv.LookupL1(tid, a)
		if l == nil || !l.NeedsPersist() {
			continue // the FliT skip: already durable (or ack in flight,
			// covered by the pending horizon)
		}
		done := sv.PersistL1Line(tid, l, now, now, critical)
		pending.Add(done)
		if done > horizon {
			horizon = done
		}
	}
	m.tracked[tid] = m.tracked[tid][:0]
	return horizon
}

func (m *flitMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	if !release {
		return now
	}
	return m.flushTracked(tid, now, true)
}

func (m *flitMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	if !release {
		m.track(tid, l.Addr)
		return now
	}
	// The release persists synchronously before the thread proceeds
	// (exactly SB's post-release barrier).
	done := m.sv.PersistL1Line(tid, l, now, now, true)
	m.sv.Pending(tid).Add(done)
	return done
}

func (m *flitMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time { return now }

func (m *flitMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time {
	if !l.NeedsPersist() {
		return now
	}
	return m.sv.PersistL1Line(tid, l, now, now, true)
}

func (m *flitMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time {
	if !l.NeedsPersist() {
		return now
	}
	// Strict: eviction persists on the critical path (as SB).
	return m.sv.PersistL1Line(tid, l, now, now, true)
}

func (m *flitMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	// Inter-thread dependency: persist just the forwarded line and block
	// the requester until its ack — the reader never sees non-durable
	// data, and the owner's other dirty lines wait for its own next
	// release barrier. (SB flushes the owner's whole dirty set here;
	// eliding that is where FliT-SB beats SB on sharing-heavy workloads.)
	if l.NeedsPersist() {
		done := m.sv.PersistL1Line(ownerTid, l, now, now, true)
		m.sv.Pending(ownerTid).Add(done)
		return done
	}
	return engine.Max(now, engine.Time(l.FlushedUntil))
}

func (m *flitMech) OnBarrier(tid int, now engine.Time) engine.Time {
	return m.flushTracked(tid, now, true)
}

func (m *flitMech) Drain(tid int, now engine.Time) engine.Time {
	// Clean shutdown: authoritative full flush (tracking is per-release
	// bookkeeping, not ground truth for what is dirty).
	m.tracked[tid] = m.tracked[tid][:0]
	return m.sv.FlushAllDirty(tid, now, false)
}

func (m *flitMech) PersistsOnWriteback() bool { return true }
func (m *flitMech) LLCEvictPersists() bool    { return false }
