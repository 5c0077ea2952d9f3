package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
)

// sbMech enforces RP with strict full barriers (§6.2 "SB"): a barrier
// before every release blocks until everything the thread has written has
// persisted; a barrier after the release blocks until the release itself
// has persisted. Inter-thread dependencies block the requester until the
// source thread's dirty state persists. SB trades all concurrency for
// simplicity and is the paper's most conservative comparison point.
type sbMech struct {
	NoCrashState
	sv SystemView
}

func newSB(sv SystemView) Mechanism { return &sbMech{sv: sv} }

// retired returns tid's persist-ack set after dropping the acks that
// completed by now. SB, BB and FliT-SB read only the set's horizon
// (MaxTime), which retiring leaves as it is, so calling this before each
// Add keeps only the persists still in flight, where keeping every ack of
// the run would grow the set with the run's length.
func retired(sv SystemView, tid int, now engine.Time) *engine.CompletionSet {
	p := sv.Pending(tid)
	p.DrainUpTo(now)
	return p
}

func (m *sbMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	if !release {
		return now
	}
	// Full barrier before the release: persist everything buffered and
	// wait for the acks.
	return m.sv.FlushAllDirty(tid, now, true)
}

func (m *sbMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	if !release {
		return now
	}
	// Full barrier after the release: the release itself persists before
	// the thread proceeds, which is what lets a later acquire (from
	// anywhere) trust that a visible release is durable.
	done := m.sv.PersistL1Line(tid, l, now, now, true)
	retired(m.sv, tid, now).Add(done)
	return done
}

func (m *sbMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time { return now }

func (m *sbMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time {
	if !l.NeedsPersist() {
		return now
	}
	return m.sv.PersistL1Line(tid, l, now, now, true)
}

func (m *sbMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time {
	if !l.NeedsPersist() {
		return now
	}
	// Strict: eviction persists on the critical path.
	return m.sv.PersistL1Line(tid, l, now, now, true)
}

func (m *sbMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	// Inter-thread dependency: the requester blocks until the source
	// thread's buffered writes (its ongoing epoch) persist, including
	// any ack still in flight for this line.
	done := m.sv.FlushAllDirty(ownerTid, now, true)
	return engine.Max(done, engine.Time(l.FlushedUntil))
}

func (m *sbMech) Drain(tid int, now engine.Time) engine.Time {
	return m.sv.FlushAllDirty(tid, now, false)
}

func (m *sbMech) LLCEvictPersists() bool { return false }
