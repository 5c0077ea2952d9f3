package mech

import (
	"cmp"
	"slices"

	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
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

	// sched is persistReleased's schedule, refilled in place: the engine
	// runs once per triggered release, so per-run allocation would
	// dominate the persist path.
	sched lrpSchedule
}

func newLRP(sv SystemView) Mechanism { return &lrpMech{sv: sv} }

// lrpSchedule is the persist engine's order for one triggered persist of
// a released line (§5.2.2): the only-written lines, which may persist
// immediately and concurrently, then the released lines, which must
// persist after every scheduled write completes and in ascending epoch
// order among themselves, ending with the trigger.
type lrpSchedule struct {
	// writes are the only-written lines, by address.
	writes []*cache.Line
	// releases are the released lines by (MinEpoch, address), then the
	// trigger.
	releases []*cache.Line
}

// build fills s from the engine's L1 scan: every line holding
// unpersisted writes. Lines with MinEpoch >= the trigger's release epoch
// are outside the release's one-sided barrier and are left alone — that
// freedom from conflicts is exactly RP's performance edge (§4.2). The
// orders depend only on the lines' metadata, never on the scan's order.
func (s *lrpSchedule) build(trigger *cache.Line, scanned []*cache.Line) {
	s.writes = s.writes[:0]
	s.releases = s.releases[:0]
	for _, l := range scanned {
		if l.Addr == trigger.Addr || l.MinEpoch >= trigger.MinEpoch {
			continue // the trigger goes last; newer epochs stay buffered
		}
		if l.Released() {
			s.releases = append(s.releases, l)
		} else {
			s.writes = append(s.writes, l)
		}
	}
	// Ties in epoch (impossible for distinct releases of one thread)
	// break by address, so the order is total. slices.SortFunc rather
	// than sort.Slice: the latter's reflection-based swapper allocates
	// on every call.
	slices.SortFunc(s.releases, func(a, b *cache.Line) int {
		if c := cmp.Compare(a.MinEpoch, b.MinEpoch); c != 0 {
			return c
		}
		return cmp.Compare(a.Addr, b.Addr)
	})
	slices.SortFunc(s.writes, func(a, b *cache.Line) int { return cmp.Compare(a.Addr, b.Addr) })
	s.releases = append(s.releases, trigger)
}

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

	// Scan the L1 (§5.2.2: the engine examines all cache lines — the
	// pending bitmap narrows that to the lines holding unpersisted
	// writes).
	scanned := sv.ScanDirty(tid)
	m.sched.build(l, scanned)
	sv.NoteEngineScan(tid, len(scanned), len(m.sched.releases), now)

	// Only-written lines persist immediately and concurrently; the
	// pending-persists counter tracks them. The engine also waits for
	// persists already in flight from earlier engine runs.
	pending := sv.Pending(tid)
	pending.DrainUpTo(now)
	horizon := pending.MaxTime(now)
	for _, w := range m.sched.writes {
		done := sv.PersistL1Line(tid, w, now, now, critical)
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
	for _, r := range m.sched.releases {
		sv.RET(tid).RemoveAt(r.Addr, now)
		t = sv.PersistL1Line(tid, r, now, t, critical)
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
