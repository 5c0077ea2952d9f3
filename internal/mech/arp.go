package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/persist"
)

// arpEntry is one per-thread persist-buffer entry: a line's worth of
// writes belonging to one ARP epoch, with their stamps as a chain in the
// machine's stamp arena.
type arpEntry struct {
	line   isa.Addr
	epoch  uint32
	stamps persist.StampList
}

// arpMech models acquire-release persistency (Kolli et al., ISCA'17) on
// its persist-buffer substrate (§3.2 of the paper): every write enters a
// per-thread FIFO persist buffer tagged with the thread's ARP epoch. A
// release raises a flag; the thread's *next acquire* closes the epoch
// (that placement is the ARP-rule: writes before the release are ordered
// only against writes after the matching acquire). Epochs of one thread
// drain to NVM in order; *within* an epoch entries drain concurrently in
// address order — so a release can persist before the plain writes that
// precede it in program order. That is precisely the gap the paper
// identifies (§3.1.1): ARP satisfies its own rule yet can leave a linked
// structure unrecoverable.
//
// Durability flows only through the buffer: cache write-backs land in the
// NVM-side DRAM cache and are not considered persisted (the delegated-
// ordering designs ARP builds on route persists around the cache
// hierarchy).
type arpMech struct {
	NoCrashState
	sv SystemView

	// Per-thread state: the release flag, the persist buffer, the
	// completion horizon of the last drained epoch, and the ARP epoch id
	// (advances at flagged acquires).
	flag   []bool
	buffer [][]arpEntry
	drain  []engine.Time
	epoch  []uint32
}

func newARP(sv SystemView) Mechanism {
	return &arpMech{
		sv:     sv,
		flag:   make([]bool, sv.Cores()),
		buffer: make([][]arpEntry, sv.Cores()),
		drain:  make([]engine.Time, sv.Cores()),
		epoch:  make([]uint32, sv.Cores()),
	}
}

// drainEpochs issues persists for all buffered entries with epoch < upTo,
// epoch by epoch behind the thread's drain horizon. It returns the final
// ack time of what it drained (or the existing horizon).
func (m *arpMech) drainEpochs(tid int, upTo uint32, now engine.Time) engine.Time {
	sv := m.sv
	for {
		// Entries are appended with the thread's then-current epoch and
		// the epoch id only advances, so the buffer is nondecreasing in
		// epoch: the oldest epoch is a prefix, and draining it is an
		// in-place split — no fresh kept/entries slices per drain.
		buf := m.buffer[tid]
		if len(buf) == 0 || buf[0].epoch >= upTo {
			return m.drain[tid]
		}
		oldest := buf[0].epoch
		k := 1
		for k < len(buf) && buf[k].epoch == oldest {
			k++
		}
		// Issue this epoch's entries concurrently, in address order,
		// behind the previous epoch's final ack.
		entries := buf[:k]
		for i := 1; i < len(entries); i++ {
			for j := i; j > 0 && entries[j].line < entries[j-1].line; j-- {
				entries[j], entries[j-1] = entries[j-1], entries[j]
			}
		}
		issue := engine.Max(now, m.drain[tid])
		horizon := m.drain[tid]
		for i := range entries {
			done := sv.PersistAddr(tid, entries[i].line, &entries[i].stamps, now, issue, false)
			if done > horizon {
				horizon = done
			}
		}
		n := copy(buf, buf[k:])
		m.buffer[tid] = buf[:n]
		m.drain[tid] = horizon
	}
}

func (m *arpMech) OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time {
	return now
}

func (m *arpMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	// Coalesce into an existing same-line entry of the current epoch.
	var e *arpEntry
	for i := range m.buffer[tid] {
		if m.buffer[tid][i].line == l.Addr && m.buffer[tid][i].epoch == m.epoch[tid] {
			e = &m.buffer[tid][i]
			break
		}
	}
	if e == nil {
		m.buffer[tid] = append(m.buffer[tid], arpEntry{line: l.Addr, epoch: m.epoch[tid]})
		e = &m.buffer[tid][len(m.buffer[tid])-1]
	}
	if !st.IsZero() {
		// The buffer entry, not the L1 line, makes the write durable, so
		// the stamp moves from the line's chain to the entry's.
		a := m.sv.Stamps()
		l.DropLastStamp(a)
		a.Append(&e.stamps, st)
	}
	if release {
		// ARP: a release raises the flag; the next acquire places the
		// (one-sided) barrier. The release itself does not start a new
		// epoch — the source of the recovery gap.
		m.flag[tid] = true
	}
	// Capacity pressure: the buffer stalls the core until the oldest
	// epoch (the buffer's epoch-sorted head) drains.
	if len(m.buffer[tid]) > m.sv.ARPBufferCap() {
		ack := m.drainEpochs(tid, m.buffer[tid][0].epoch+1, now)
		if ack > now {
			now = ack
		}
	}
	return now
}

func (m *arpMech) OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time {
	if m.flag[tid] {
		// The flagged acquire closes the epoch: writes before the
		// release are now ordered against writes after this acquire.
		m.flag[tid] = false
		closing := m.epoch[tid]
		m.epoch[tid]++
		m.drainEpochs(tid, closing+1, now) // proactive, off the critical path
	}
	return now
}

func (m *arpMech) OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time { return now }

// OnEvict: a dirty line leaving the L1 becomes visible through the LLC
// to readers the buffer cannot see, so the owner's buffered epochs drain
// eagerly and the directory holds the line until the ack — the delegated
// ordering that RCBSP-style hardware performs when buffered data escapes.
func (m *arpMech) OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time {
	if l.NeedsPersist() {
		ack := m.drainEpochs(tid, m.epoch[tid]+1, now)
		m.sv.BlockLine(l.Addr, ack)
	}
	return now
}

// OnDowngrade implements ARP's inter-thread component: when a reader
// observes another thread's buffered writes, the source's epochs drain
// (off the critical path) and the reader's *future* drains are held
// behind the ack — so writes after the reader's acquire persist after
// writes before the source's release, exactly the ARP-rule. Crucially,
// nothing orders the source's release against its own preceding writes:
// the recovery gap the paper identifies survives intact.
func (m *arpMech) OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time {
	if !l.NeedsPersist() {
		return now
	}
	ack := m.drainEpochs(ownerTid, m.epoch[ownerTid]+1, now)
	if reqTid >= 0 {
		if ack > m.drain[reqTid] {
			m.drain[reqTid] = ack
		}
	}
	return now
}

func (m *arpMech) Drain(tid int, now engine.Time) engine.Time {
	m.epoch[tid]++
	ack := m.drainEpochs(tid, m.epoch[tid], now)
	return engine.Max(now, ack)
}

func (m *arpMech) LLCEvictPersists() bool { return false }
