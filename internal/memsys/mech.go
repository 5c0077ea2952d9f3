package memsys

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/model"
	"lrp/internal/perf"
	"lrp/internal/persist"
)

// sysView adapts *System to mech.SystemView: the narrow facade the
// pluggable persistency mechanisms program against. Mechanisms never see
// *System; everything they may touch goes through these methods, so the
// machine's internals (threads, caches, stats, observability) stay free
// of mechanism-specific code and a new mechanism cannot reach beyond the
// contract.
type sysView System

func (v *sysView) sys() *System { return (*System)(v) }

func (v *sysView) Cores() int              { return v.cfg.Cores }
func (v *sysView) MaxPendingPersists() int { return v.cfg.MaxPendingPersists }
func (v *sysView) ARPBufferCap() int       { return v.cfg.ARPBufferCap }

func (v *sysView) Epochs(tid int) *persist.EpochCounter { return v.threads[tid].epochs }
func (v *sysView) RET(tid int) *persist.RET             { return v.threads[tid].ret }
func (v *sysView) Pending(tid int) *engine.CompletionSet {
	return &v.threads[tid].pending
}

func (v *sysView) LookupL1(tid int, line isa.Addr) *cache.Line {
	return v.l1s[tid].Lookup(line)
}

func (v *sysView) ScanDirty(tid int) []*cache.Line { return v.sys().scanDirty(tid) }

func (v *sysView) PersistL1Line(tid int, l *cache.Line, now, earliest engine.Time, critical bool) engine.Time {
	return v.sys().persistL1Line(tid, l, now, earliest, critical)
}

func (v *sysView) PersistAddr(tid int, addr isa.Addr, stamps *persist.StampList, now, earliest engine.Time, critical bool) engine.Time {
	return v.sys().persistAddr(tid, addr, stamps, now, earliest, critical)
}

func (v *sysView) FlushAllDirty(tid int, now engine.Time, critical bool) engine.Time {
	return v.sys().flushAllDirty(tid, now, critical)
}

func (v *sysView) BlockLine(line isa.Addr, t engine.Time) { v.sys().blockLine(line, t) }

func (v *sysView) Stamps() *persist.StampArena { return v.stamps }

func (v *sysView) FaultStall(tid int, now engine.Time) engine.Time {
	return v.sys().faultStall(tid, now)
}

func (v *sysView) Tracking() bool { return v.tracker != nil }

func (v *sysView) SetPersisted(st model.Stamp, at engine.Time) {
	if v.tracker != nil {
		v.tracker.SetPersisted(st, at)
	}
}

func (v *sysView) NoteEngineScan(tid, scanned, releases int, now engine.Time) {
	r := &v.cnt.Core[tid]
	r.EngineScans++
	r.EngineReleases += uint64(releases)
	if v.obs != nil {
		v.obs.EngineScan(tid, scanned, releases, now)
	}
}

func (v *sysView) NoteEpochOverflow(tid int, now engine.Time) {
	v.cnt.Core[tid].EpochOverflows++
	if v.obs != nil {
		v.obs.EpochOverflow(tid, now)
	}
}

func (v *sysView) NoteEpochAdvance(tid int, epoch uint32, now engine.Time) {
	v.cnt.Core[tid].EpochAdvances++
	if v.obs != nil {
		v.obs.EpochAdvance(tid, epoch, now)
	}
}

func (v *sysView) NoteRETDrain(tid int, line isa.Addr, now engine.Time) {
	v.cnt.Core[tid].RETWatermarkFlushes++
	if v.obs != nil {
		v.obs.RETDrain(tid, uint64(line), now)
	}
}

func (v *sysView) NoteI2Stall(tid int, from, to engine.Time) {
	r := &v.cnt.Core[tid]
	r.I2Stalls++
	if to > from {
		r.I2Cycles += uint64(to - from)
	}
}

var _ mech.SystemView = (*sysView)(nil)

// scanDirty returns all lines of tid's L1 holding unpersisted writes.
// The returned slice is backed by a per-core scratch buffer and is valid
// only until the next scanDirty or flushAllDirty call for the same tid.
func (s *System) scanDirty(tid int) []*cache.Line {
	if s.perf != nil {
		s.perf.Start(perf.PhaseEngineScan)
		defer s.perf.End()
	}
	out := s.dirtyScratch[tid][:0]
	// ScanPending walks the pending bitmap — words of bits, not every
	// valid line — in the same slot order a full Scan would visit, so
	// persist schedules are unchanged while the engine's dominant cost
	// scales with dirty lines rather than cache size.
	s.l1s[tid].ScanPending(func(l *cache.Line) {
		out = append(out, l)
	})
	s.dirtyScratch[tid] = out
	return out
}

// flushAllDirty persists every unpersisted line of tid's L1: only-written
// lines first (in parallel), then released lines in epoch order. The
// returned time is the final ack. Used by SB's pre-release and
// downgrade flushes, BB's and LRP's epoch-overflow flushes, and every
// mechanism's clean-shutdown drain.
func (s *System) flushAllDirty(tid int, now engine.Time, critical bool) engine.Time {
	if s.perf != nil {
		s.perf.Start(perf.PhaseEngineScan)
		defer s.perf.End()
	}
	th := s.threads[tid]
	now = s.faultStall(tid, now)
	dirty := s.scanDirty(tid)
	horizon := th.pending.MaxTime(now)
	released := s.relScratch[tid][:0]
	for _, l := range dirty {
		if l.Released() {
			released = append(released, l)
			continue
		}
		done := s.persistL1Line(tid, l, now, now, critical)
		th.pending.Add(done)
		if done > horizon {
			horizon = done
		}
	}
	// Releases persist after all writes, in epoch order.
	for i := 1; i < len(released); i++ {
		for j := i; j > 0 && released[j].MinEpoch < released[j-1].MinEpoch; j-- {
			released[j], released[j-1] = released[j-1], released[j]
		}
	}
	if s.obs != nil {
		s.obs.EngineScan(tid, len(dirty), len(released), now)
	}
	t := horizon
	for _, l := range released {
		th.ret.RemoveAt(l.Addr, now)
		t = s.persistL1Line(tid, l, now, t, critical)
		th.pending.Add(t)
	}
	s.relScratch[tid] = released[:0]
	return t
}
