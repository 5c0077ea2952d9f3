package memsys

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/obs"
	"lrp/internal/perf"
	"lrp/internal/persist"
)

// read executes a load by thread tid and returns the value read.
func (s *System) read(tid int, addr isa.Addr, acquire bool) uint64 {
	line := addr.Line()
	t := s.clocks[tid] + s.cfg.IssueCost
	if l := s.l1s[tid].Access(line); l != nil {
		t += s.cfg.L1Lat
	} else {
		t += s.cfg.L1Lat // miss detection
		t = s.fetch(tid, line, false, t)
	}
	if acquire {
		if s.tracker != nil {
			s.tracker.OnAcquire(tid, addr)
		}
		t = s.mech.OnAcquire(tid, addr, t)
	}
	s.cnt.Core[tid].Ops++
	s.clocks[tid] = t
	return s.mem.Read(addr)
}

// write executes a store by thread tid.
func (s *System) write(tid int, addr isa.Addr, val uint64, release bool) {
	t := s.obtainExclusive(tid, addr.Line(), s.clocks[tid]+s.cfg.IssueCost)
	t = s.performWrite(tid, addr, val, release, false, t)
	s.cnt.Core[tid].Ops++
	s.clocks[tid] = t
}

// rmw executes a compare-and-swap. It returns the old value and whether
// the swap happened.
func (s *System) rmw(tid int, addr isa.Addr, expected, val uint64, order isa.Ordering) (uint64, bool) {
	// A CAS obtains exclusive ownership up front (it must be able to
	// write atomically), succeed or fail.
	t := s.obtainExclusive(tid, addr.Line(), s.clocks[tid]+s.cfg.IssueCost)
	old := s.mem.Read(addr)
	if order.IsAcquire() {
		if s.tracker != nil {
			s.tracker.OnAcquire(tid, addr)
		}
		t = s.mech.OnAcquire(tid, addr, t)
	}
	swapped := old == expected
	if swapped {
		t = s.performWrite(tid, addr, val, order.IsRelease(), order.IsAcquire(), t)
	}
	s.cnt.Core[tid].Ops++
	s.clocks[tid] = t
	return old, swapped
}

// obtainExclusive brings addr's line into the local L1 in Modified state,
// returning the time ownership is held.
func (s *System) obtainExclusive(tid int, line isa.Addr, t engine.Time) engine.Time {
	l1 := s.l1s[tid]
	l := l1.Access(line)
	switch {
	case l == nil:
		t += s.cfg.L1Lat // miss detection
		t = s.fetch(tid, line, true, t)
	case l.State == cache.Modified:
		t += s.cfg.L1Lat
	case l.State == cache.Exclusive:
		l.State = cache.Modified
		s.dir.SetOwner(line, tid)
		t += s.cfg.L1Lat
	case l.State == cache.Shared:
		t += s.cfg.L1Lat
		t = s.upgradeShared(tid, line, t)
		l.State = cache.Modified
	}
	return t
}

// performWrite runs the mechanism write hook, stamps the write, and makes
// it visible. The line must already be Modified in tid's L1.
func (s *System) performWrite(tid int, addr isa.Addr, val uint64, release, rmwAcquire bool, t engine.Time) engine.Time {
	l := s.l1s[tid].Lookup(addr.Line())
	t2 := s.mech.OnWrite(tid, l, release, t)
	s.stall(tid, obs.StallWrite, t, t2)
	t = t2
	var st model.Stamp
	if s.tracker != nil {
		if release {
			st = s.tracker.OnRelease(tid, addr)
		} else {
			st = s.tracker.OnWrite(tid, addr)
		}
		l.AppendStamp(s.stamps, st)
		s.threads[tid].lastStamp = st
	}
	s.l1s[tid].MarkPending(l)
	s.mem.Write(addr, val)
	t = s.mech.OnStamped(tid, l, addr, val, st, release, t)
	if rmwAcquire {
		// Invariant I3: an acquire-RMW blocks the pipeline until its
		// write persists.
		t3 := s.mech.OnRMWAcquire(tid, l, t)
		s.stall(tid, obs.StallRMWAcquire, t, t3)
		t = t3
	}
	return t
}

// upgradeShared invalidates other sharers so tid can write a line it
// holds in Shared state.
func (s *System) upgradeShared(tid int, line isa.Addr, t engine.Time) engine.Time {
	bank := s.llc.Bank(line)
	t += s.netLat(tid, bank)
	t = s.lineAvailable(line, t)
	t = s.llcSrv.Bank(uint64(bank)).Serve(t, s.cfg.LLCLat)
	t += s.invalidateSharers(tid, line, bank, s.dir.Entry(line))
	s.dir.SetOwner(line, tid)
	return t + s.netLat(tid, bank)
}

// invalidateSharers invalidates every Shared copy of line but tid's
// (Shared lines hold no dirty data) and returns the invalidation round
// trip to the farthest sharer.
func (s *System) invalidateSharers(tid int, line isa.Addr, bank int, e *cache.DirEntry) engine.Time {
	var far engine.Time
	e.ForEachSharer(func(sh int) {
		if sh == tid {
			return
		}
		s.l1s[sh].Invalidate(line)
		s.dir.RemoveSharer(line, sh)
		s.cnt.DirInvalidations++
		if d := s.netLat(sh, bank); d > far {
			far = d
		}
	})
	return 2 * far
}

// fetch resolves an L1 miss at the directory, returning the time the fill
// completes. exclusive selects GetM (write intent) vs GetS.
func (s *System) fetch(tid int, line isa.Addr, exclusive bool, t engine.Time) engine.Time {
	bank := s.llc.Bank(line)
	t += s.netLat(tid, bank)
	// Invariant I4 / §5.2.3: the directory blocks requests to a line
	// with an in-flight persist until the ack arrives.
	t = s.lineAvailable(line, t)
	t = s.llcSrv.Bank(uint64(bank)).Serve(t, s.cfg.LLCLat)
	llcHit := s.llc.Access(line)
	if b := &s.cnt.Bank[bank]; llcHit {
		b.LLCHits++
	} else {
		b.LLCMisses++
	}
	e := s.dir.Entry(line)
	dataFromOwner := false

	if e.Owner != cache.NoOwner && e.Owner != tid {
		owner := e.Owner
		ol := s.l1s[owner].Lookup(line)
		fwd := s.netLat(owner, bank)
		t += fwd + s.cfg.L1Lat
		if ol != nil && ol.State == cache.Modified {
			cause := downgradeCause(ol, t)
			s.cnt.Core[owner].Downgrades[cause]++
			if s.obs != nil {
				s.obs.Downgrade(owner, uint64(line), cause, t)
			}
			t2 := s.mech.OnDowngrade(owner, tid, ol, t)
			// The requester is the thread that pays any I2 wait.
			s.stall(tid, obs.StallDowngrade, t, t2)
			t = t2
			s.installWriteback(owner, ol, t)
			dataFromOwner = true
		}
		if exclusive {
			if ol != nil {
				s.l1s[owner].Invalidate(line)
			}
			s.dir.DropCore(line, owner)
		} else {
			if ol != nil {
				ol.State = cache.Shared
			}
			s.dir.ClearOwner(line, true)
		}
		t += fwd
		if ol != nil && ol.State != cache.Modified && !dataFromOwner {
			// Clean forward (owner held E): data came from the owner.
			dataFromOwner = true
		}
	} else if exclusive && e.HasSharers() {
		t += s.invalidateSharers(tid, line, bank, e)
	}

	if !llcHit && !dataFromOwner {
		if s.perf != nil {
			s.perf.Start(perf.PhaseNVM)
		}
		t = s.nvm.ReadLine(t, line)
		if s.perf != nil {
			s.perf.End()
		}
	}
	if !llcHit {
		s.llcFillClean(line, t)
	}

	// Install into the requester's L1, evicting a victim if needed.
	l1 := s.l1s[tid]
	slot := l1.Victim(line)
	if slot.State != cache.Invalid {
		t = s.evictL1(tid, slot, t)
	}
	st := cache.Shared
	e = s.dir.Entry(line)
	if exclusive {
		st = cache.Modified
		s.dir.SetOwner(line, tid)
	} else if e.Owner == cache.NoOwner && !e.HasSharers() {
		st = cache.Exclusive
		s.dir.SetOwner(line, tid)
	} else {
		s.dir.AddSharer(line, tid)
	}
	l1.Fill(slot, line, st)
	return t + s.netLat(tid, bank)
}

// evictL1 handles the capacity eviction of an L1 victim line, running the
// mechanism's eviction invariant and moving dirty data to the LLC.
func (s *System) evictL1(tid int, victim *cache.Line, t engine.Time) engine.Time {
	r := &s.cnt.Core[tid]
	r.L1Evictions++
	if victim.State == cache.Modified {
		r.L1DirtyEvictions++
		if s.obs != nil {
			s.obs.DirtyEviction(tid, uint64(victim.Addr), t)
		}
		t2 := s.mech.OnEvict(tid, victim, t)
		s.stall(tid, obs.StallEvict, t, t2)
		t = t2
		s.installWriteback(tid, victim, t)
	}
	s.dir.DropCore(victim.Addr, tid)
	return t
}

// downgradeCause classifies what a downgrade of a Modified line will cost
// before the mechanism hook runs (the hook mutates the line's metadata).
func downgradeCause(l *cache.Line, now engine.Time) obs.DowngradeCause {
	switch {
	case l.Released():
		return obs.DowngradeReleased
	case l.NeedsPersist():
		return obs.DowngradeOnlyWritten
	case engine.Time(l.FlushedUntil) > now:
		return obs.DowngradeInFlight
	default:
		return obs.DowngradeClean
	}
}

// installWriteback puts an L1 line's data into the LLC after a downgrade
// or eviction. If the mechanism did not persist the data, the LLC copy is
// dirty and (under NOP) the line's stamps travel with it.
func (s *System) installWriteback(tid int, l *cache.Line, t engine.Time) {
	s.llcFillClean(l.Addr, t)
	if l.NeedsPersist() {
		// Data left the L1 without persisting (NOP or ARP).
		s.llc.MarkDirty(l.Addr)
		if s.mech.LLCEvictPersists() && l.StampLen() > 0 {
			// NOP: stamps follow the data; they persist when the LLC
			// evicts the line to NVM. The chain moves in O(1), no copy.
			st := l.TakeStamps()
			p, _ := s.llcStamps.Upsert(uint64(l.Addr))
			s.stamps.Concat(p, &st)
		}
		// Under ARP the persist buffer owns durability; the writeback's
		// stamps are dropped here and resolved by the buffer drain.
		l.ClearPersistMeta(s.stamps)
	}
	_ = tid
}

// llcFillClean inserts a line into the LLC, handling the capacity
// eviction of a dirty LLC line (possible only under NOP).
func (s *System) llcFillClean(line isa.Addr, t engine.Time) {
	ev, dirty, had := s.llc.Fill(line)
	if !had {
		return
	}
	var stamps persist.StampList
	if p := s.llcStamps.Ptr(uint64(ev)); p != nil {
		stamps = *p
		s.llcStamps.Delete(uint64(ev))
	}
	if dirty && s.mech.LLCEvictPersists() {
		// Dirty LLC data reaches NVM when evicted (off the critical
		// path of any core).
		s.persistAddrList(-1, ev, &stamps, t, t, false)
	} else {
		s.stamps.Free(&stamps)
	}
}
