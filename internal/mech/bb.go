package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/persist"
)

// bbMech is the state-of-the-art buffered full barrier (§6.2 "BB",
// modeled on Joshi et al., MICRO'15): writes buffer in the cache tagged
// with their epoch; a full barrier is inserted before and after each
// release; each barrier closes the epoch and *proactively flushes* it off
// the critical path. Costs land on conflicts:
//
//   - writing a line that still holds an older epoch's data (or whose
//     flush is in flight) stalls until that data is durable;
//   - evicting a line whose writes are not yet durable stalls;
//   - inter-thread dependencies are enforced lazily: the consumer's
//     persist horizon is advanced past the producer's ack instead of
//     blocking the consumer's execution.
//
// Epochs of one thread persist in order: each epoch's flush is issued no
// earlier than the previous epoch's final ack (the thread's horizon).
type bbMech struct {
	NoCrashState
	sv SystemView

	// horizon is each thread's epoch-serialization horizon: the final
	// ack time of the last closed epoch (own or inherited from a
	// producer via a lazy inter-thread dependency). prevHorizon is the
	// ack horizon of the epoch before that: the hardware tracks a
	// bounded number of unpersisted epochs, so closing a new epoch
	// stalls until the epoch-before-last has fully acked (two epochs in
	// flight).
	horizon     []engine.Time
	prevHorizon []engine.Time
}

func newBB(sv SystemView) Mechanism {
	return &bbMech{
		sv:          sv,
		horizon:     make([]engine.Time, sv.Cores()),
		prevHorizon: make([]engine.Time, sv.Cores()),
	}
}

func (m *bbMech) Kind() persist.Kind { return persist.BB }

// flushEpoch closes the current epoch: it proactively issues persists for
// every dirty line of the epoch, serialized behind the thread's epoch
// horizon. The hardware can track only a bounded number of unpersisted
// epochs, so the barrier itself stalls (critical path) until the
// epoch-before-last has fully acked — the cost that dominates BB under
// NVM bandwidth pressure. It returns the (possibly stalled) time.
func (m *bbMech) flushEpoch(tid int, now engine.Time) engine.Time {
	sv := m.sv
	cur := sv.Epochs(tid).Current()
	stalled := false
	if m.horizon[tid] > now {
		// One epoch in flight: the barrier drains the previous epoch
		// before the next may close (the flush queue is bounded and
		// epochs persist strictly in order).
		now = m.horizon[tid]
		stalled = true
	}
	issue := engine.Max(now, m.horizon[tid])
	horizon := m.horizon[tid]
	for _, l := range sv.ScanDirty(tid) {
		if l.Epoch != cur {
			continue // older epochs are already in flight
		}
		done := sv.PersistL1Line(tid, l, now, issue, stalled)
		sv.Pending(tid).Add(done)
		if done > horizon {
			horizon = done
		}
	}
	m.prevHorizon[tid] = m.horizon[tid]
	m.horizon[tid] = horizon
	epoch, overflowed := sv.Epochs(tid).Advance()
	if overflowed {
		// Epoch-id wraparound: tags become incomparable, so everything
		// still buffered must go (mirrors LRP's overflow flush).
		sv.NoteEpochOverflow(tid, now)
		m.horizon[tid] = sv.FlushAllDirty(tid, issue, false)
	}
	sv.NoteEpochAdvance(tid, epoch, now)
	return now
}

func (m *bbMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	sv := m.sv
	// Conflict: the line's previous contents are being flushed; wait for
	// the ack before overwriting (the drain reads the line).
	if engine.Time(l.FlushedUntil) > now {
		now = engine.Time(l.FlushedUntil)
	}
	// Conflict: the line holds unpersisted data from an older epoch; a
	// dirty line must hold a single epoch, so persist the old epoch on
	// the critical path.
	if l.NeedsPersist() && l.Epoch != sv.Epochs(tid).Current() {
		issue := engine.Max(now, m.horizon[tid])
		done := sv.PersistL1Line(tid, l, now, issue, true)
		sv.Pending(tid).Add(done)
		if done > m.horizon[tid] {
			m.horizon[tid] = done
		}
		now = done
	}
	if release {
		// Full barrier before the release: close the epoch.
		now = m.flushEpoch(tid, now)
	}
	return now
}

func (m *bbMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	l.Epoch = m.sv.Epochs(tid).Current()
	if release {
		// Full barrier after the release: the release sits alone in its
		// epoch and its flush is issued immediately.
		now = m.flushEpoch(tid, now)
	}
	return now
}

func (m *bbMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time { return now }

func (m *bbMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time {
	sv := m.sv
	if l.NeedsPersist() {
		issue := engine.Max(now, m.horizon[tid])
		done := sv.PersistL1Line(tid, l, now, issue, true)
		sv.Pending(tid).Add(done)
		return done
	}
	return engine.Max(now, engine.Time(l.FlushedUntil))
}

func (m *bbMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time {
	sv := m.sv
	if l.NeedsPersist() {
		// Unflushed (current-epoch) data evicted: persist on the
		// critical path, behind the epoch horizon.
		issue := engine.Max(now, m.horizon[tid])
		done := sv.PersistL1Line(tid, l, now, issue, true)
		sv.Pending(tid).Add(done)
		return done
	}
	if engine.Time(l.FlushedUntil) > now {
		// Flush in flight: the eviction proceeds, but the directory
		// blocks consumers of the line until the ack (transient state).
		sv.BlockLine(l.Addr, engine.Time(l.FlushedUntil))
	}
	return now
}

func (m *bbMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	sv := m.sv
	var ack engine.Time
	if l.NeedsPersist() {
		// The shared line's writes are not durable yet: persist them off
		// the critical path (lazy inter-thread enforcement)...
		issue := engine.Max(now, m.horizon[ownerTid])
		ack = sv.PersistL1Line(ownerTid, l, now, issue, false)
		sv.Pending(ownerTid).Add(ack)
		if ack > m.horizon[ownerTid] {
			m.horizon[ownerTid] = ack
		}
	} else {
		// Other consumers may reach the data through the resulting
		// Shared copies without a downgrade, so the directory holds the
		// line until the ack of the flush in flight (a persist issued
		// above holds it already).
		ack = engine.Time(l.FlushedUntil)
		sv.BlockLine(l.Addr, ack)
	}
	// ...and make the *requester's* future persists wait behind the
	// producer's ack, so cross-thread persist order holds without
	// blocking the requester's execution.
	if reqTid >= 0 && ack > m.horizon[reqTid] {
		m.horizon[reqTid] = ack
	}
	return now
}

func (m *bbMech) OnBarrier(tid int, now engine.Time) engine.Time {
	done := m.sv.FlushAllDirty(tid, engine.Max(now, m.horizon[tid]), true)
	if done > m.horizon[tid] {
		m.horizon[tid] = done
	}
	return done
}

func (m *bbMech) Drain(tid int, now engine.Time) engine.Time {
	done := m.sv.FlushAllDirty(tid, engine.Max(now, m.horizon[tid]), false)
	if done > m.horizon[tid] {
		m.horizon[tid] = done
	}
	return done
}

func (m *bbMech) PersistsOnWriteback() bool { return true }
func (m *bbMech) LLCEvictPersists() bool    { return false }
