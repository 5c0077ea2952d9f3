package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/persist"
)

// lrpMech is the paper's contribution (§5): lazy release persistency.
// Writes buffer in the L1 and never persist eagerly. Each line tracks the
// epoch of its earliest unpersisted write (min-epoch) and whether it
// holds an unpersisted release (release bit, indexed by the RET). When a
// released line must be persisted — eviction (I1), downgrade (I2), an
// acquire-RMW (I3), RET pressure, or epoch overflow — the persist engine
// scans the L1 and persists every line with an older min-epoch: the
// only-written lines first, concurrently, then the released lines in
// epoch order (§5.2.2). Only the downgrade (I2) and acquire-RMW (I3)
// paths block a core; everything else is off the critical path, which is
// where LRP's advantage over the full barriers comes from.
type lrpMech struct {
	NoCrashState
	sv SystemView

	// scanRefs and sched are persistReleased's reusable storage: the
	// engine runs once per triggered release, so per-run allocation would
	// dominate the persist path. scanRefs parallels the ScanDirty scratch
	// (LineRef.Slot indexes into it); sched is refilled in place.
	scanRefs []persist.LineRef
	sched    persist.Schedule
}

func newLRP(sv SystemView) Mechanism { return &lrpMech{sv: sv} }

func (m *lrpMech) Kind() persist.Kind { return persist.LRP }

// persistReleased runs the persist-engine procedure for released line l
// of thread tid: persist all lines with min-epoch older than l's release
// epoch (writes first, then releases in epoch order), then l itself.
// It returns the final ack time; callers that must block (I2, I3) wait
// for it, callers that must not (I1, RET pressure) ignore it.
func (m *lrpMech) persistReleased(tid int, l *cache.Line, now engine.Time, critical bool) engine.Time {
	sv := m.sv
	// An injected NVM-machinery stall delays the whole engine run; every
	// ordering hold rides on the returned ack times, so the run's persists
	// land later but in the same order.
	now = sv.FaultStall(tid, now)
	trigger := persist.LineRef{Addr: l.Addr, MinEpoch: l.MinEpoch, Released: true, Slot: -1}

	// Scan the L1 (§5.2.2: the engine examines all cache lines — the
	// pending bitmap narrows that to the lines holding unpersisted
	// writes, in the same order). Each ref's Slot indexes the scratch
	// line slice, replacing the per-run address map.
	lines := sv.ScanDirty(tid)
	refs := m.scanRefs[:0]
	for i, cl := range lines {
		refs = append(refs, persist.LineRef{
			Addr: cl.Addr, MinEpoch: cl.MinEpoch, Released: cl.Released(), Slot: int32(i),
		})
	}
	m.scanRefs = refs
	persist.BuildScheduleInto(&m.sched, trigger, refs)
	sv.NoteEngineScan(tid, len(refs), len(m.sched.Releases), now)

	// Only-written lines persist immediately and concurrently; the
	// pending-persists counter tracks them. The engine also waits for
	// persists already in flight from earlier engine runs.
	pending := sv.Pending(tid)
	pending.DrainUpTo(now)
	horizon := pending.MaxTime(now)
	for _, w := range m.sched.Writes {
		done := sv.PersistL1Line(tid, lines[w.Slot], now, now, critical)
		pending.Add(done)
		if done > horizon {
			horizon = done
		}
	}
	// Released lines persist only after the counter drains, in epoch
	// order, each waiting for the previous ack. PersistL1Line's I4 hold
	// keeps each line at the directory until its ack: a released line's
	// value must not become readable (through S copies or the LLC) before
	// it is durable, or a consumer could out-persist it.
	t := horizon
	for _, r := range m.sched.Releases {
		cl := l // the trigger itself (Slot -1) is appended last
		if r.Slot >= 0 {
			cl = lines[r.Slot]
		}
		sv.RET(tid).RemoveAt(cl.Addr, now)
		t = sv.PersistL1Line(tid, cl, now, t, critical)
		pending.Add(t)
	}
	return t
}

func (m *lrpMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	sv := m.sv
	if !release {
		// §5.2.2 "On a write": a clean line adopts the thread's current
		// epoch; a dirty line keeps its (smaller) min-epoch.
		if !l.NeedsPersist() {
			l.MinEpoch = sv.Epochs(tid).Current()
		}
		return now
	}
	// Backpressure: the persist engine tracks a bounded number of
	// outstanding persists; a release that would exceed it stalls until
	// an ack retires.
	if free := sv.Pending(tid).ReleaseSlots(now, sv.MaxPendingPersists()-1); free > now {
		now = free
	}
	// §5.2.2 "On a release": the epoch advances; the new epoch is the
	// release epoch.
	if !l.NeedsPersist() {
		// Case (1): clean line.
	} else if l.Released() {
		// Case (2) with a prior unpersisted release in the line: the
		// engine must persist it with its one-sided barrier intact.
		m.persistReleased(tid, l, now, false)
	} else {
		// Case (2): only-written line — a release never coalesces with
		// earlier writes; the old content persists (off the critical
		// path) and the line is then treated as clean.
		done := sv.PersistL1Line(tid, l, now, now, false)
		sv.Pending(tid).Add(done)
	}
	epoch, overflowed := sv.Epochs(tid).Advance()
	if overflowed {
		// §5.2.1: on epoch-id overflow, persist everything buffered and
		// restart the epochs.
		sv.NoteEpochOverflow(tid, now)
		sv.FlushAllDirty(tid, now, false)
		sv.RET(tid).Clear()
		epoch, _ = sv.Epochs(tid).Advance()
	}
	sv.NoteEpochAdvance(tid, epoch, now)
	// RET pressure: persist the oldest release before allocating.
	if sv.RET(tid).AtWatermark() {
		if e, ok := sv.RET(tid).Oldest(); ok {
			sv.NoteRETDrain(tid, e.Line, now)
			if cl := sv.LookupL1(tid, e.Line); cl != nil && cl.Released() {
				m.persistReleased(tid, cl, now, false)
			} else {
				sv.RET(tid).RemoveAt(e.Line, now)
			}
		}
	}
	l.MinEpoch = epoch
	l.Release = true
	sv.RET(tid).AddAt(l.Addr, epoch, now)
	return now
}

func (m *lrpMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	return now
}

// OnAcquire needs no action (§5.2.2): the synchronizing release was made
// durable by the downgrade/eviction invariants before the acquire's read
// could complete.
func (m *lrpMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time { return now }

// OnRMWAcquire is Invariant I3: a successful acquire-RMW blocks the
// pipeline until its write persists.
func (m *lrpMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time {
	if l.Released() {
		return m.persistReleased(tid, l, now, true)
	}
	if !l.NeedsPersist() {
		return now
	}
	done := m.sv.PersistL1Line(tid, l, now, now, true)
	m.sv.Pending(tid).Add(done)
	return done
}

// OnEvict is Invariant I1: evicting a released line triggers the persist
// engine but does not wait for the released line's own ack; the directory
// blocks requests for the line until the ack instead (§5.2.3 PutM
// transient state). Only-written evictions persist off the critical path
// (Invariant I4 at the directory).
func (m *lrpMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time {
	sv := m.sv
	if l.Released() {
		m.persistReleased(tid, l, now, false)
		return now
	}
	if l.NeedsPersist() {
		sv.Pending(tid).Add(sv.PersistL1Line(tid, l, now, now, false))
	} else if f := engine.Time(l.FlushedUntil); f > now {
		// Persist still in flight: the directory holds the line until
		// the ack (PutM transient state, §5.2.3).
		sv.BlockLine(l.Addr, f)
	}
	return now
}

// OnDowngrade is Invariant I2: downgrading a released line blocks the
// requester until all preceding writes *and the release itself* persist.
func (m *lrpMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	sv := m.sv
	if l.Released() {
		done := m.persistReleased(ownerTid, l, now, true)
		sv.NoteI2Stall(reqTid, now, done)
		return done
	}
	if l.NeedsPersist() {
		// Only-written: persist off the critical path; the directory
		// blocks later requests until the ack (I4).
		sv.Pending(ownerTid).Add(sv.PersistL1Line(ownerTid, l, now, now, false))
		return now
	}
	if f := engine.Time(l.FlushedUntil); f > now {
		// The line was persisted off the critical path (RET drain, a
		// re-release, I1) and the ack is still in flight: the RET entry
		// is squashed only at the ack, so the downgrade — like I2 —
		// waits for it. Without this wait a consumer could out-persist
		// the producer's release.
		sv.BlockLine(l.Addr, f)
		sv.NoteI2Stall(reqTid, now, f)
		return f
	}
	return now
}

func (m *lrpMech) Drain(tid int, now engine.Time) engine.Time {
	done := m.sv.FlushAllDirty(tid, now, false)
	m.sv.RET(tid).Clear()
	return done
}

func (m *lrpMech) LLCEvictPersists() bool { return false }
