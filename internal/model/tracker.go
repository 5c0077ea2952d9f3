package model

import (
	"fmt"

	"lrp/internal/engine"
	"lrp/internal/isa"
)

// Stamp identifies one dynamic write: the seq-th write issued by thread
// Tid (1-based). The zero Stamp is "no write".
type Stamp struct {
	Tid int
	Seq uint64
}

// IsZero reports whether the stamp identifies no write.
func (s Stamp) IsZero() bool { return s.Seq == 0 }

func (s Stamp) String() string { return fmt.Sprintf("w(%d,%d)", s.Tid, s.Seq) }

// writeRec is the per-write metadata the checker consumes.
type writeRec struct {
	addr isa.Addr
	// acq is the thread's acquire clock when the write issued: the
	// cross-thread predecessor set at release granularity.
	acq VC
	// prevSameAddr is this thread's previous write to the same address
	// (same-address program order rule), 0 if none.
	prevSameAddr uint64
	// relIdx is nonzero iff this write is a release; it is the 1-based
	// release index within the thread.
	relIdx uint32
	// durableAt is when the write entered the crash image (DurableAt);
	// engine.Infinity if it never did.
	durableAt engine.Time
}

type threadState struct {
	seq      uint64 // writes issued
	relCount uint32 // releases issued
	acq      VC     // current acquire clock (immutable snapshot)
	// relSeq[k-1] is the seq of the thread's k-th release.
	relSeq []uint64
	// lastWrite maps address -> seq of this thread's last write there.
	lastWrite map[isa.Addr]uint64
	writes    []writeRec
}

// addrState records what an acquire would synchronize with at an address:
// the publishing clock of the last write if that write was a release.
type addrState struct {
	isRelease bool
	pub       VC
	// writer/seq identify the last write for diagnostics.
	writer Stamp
}

// Tracker observes the memory events the simulator executes and maintains
// everything needed to (a) decide synchronizes-with edges and (b) check
// the consistent-cut property at an arbitrary crash time. It keeps one
// durable instant per write, the instant the write's word enters every
// crash image from; every checker (CheckCut, CutSchedule, HBNeed, the
// dlin checker) reads that instant and nothing else.
//
// The Tracker is driven by package memsys in global execution order, so no
// internal synchronization is needed.
type Tracker struct {
	threads []threadState
	addrs   map[isa.Addr]*addrState
}

// NewTracker creates a tracker for n hardware threads.
func NewTracker(n int) *Tracker {
	t := &Tracker{
		threads: make([]threadState, n),
		addrs:   make(map[isa.Addr]*addrState),
	}
	for i := range t.threads {
		t.threads[i].acq = NewVC(n)
		t.threads[i].lastWrite = make(map[isa.Addr]uint64)
	}
	return t
}

// Threads returns the thread count.
func (tr *Tracker) Threads() int { return len(tr.threads) }

// WriteCount returns the number of writes issued by thread tid.
func (tr *Tracker) WriteCount(tid int) uint64 { return tr.threads[tid].seq }

// OnWrite records a plain (non-release) write by tid to addr and returns
// its stamp.
func (tr *Tracker) OnWrite(tid int, addr isa.Addr) Stamp {
	ts := &tr.threads[tid]
	ts.seq++
	rec := writeRec{
		addr:         addr,
		acq:          ts.acq,
		prevSameAddr: ts.lastWrite[addr],
		durableAt:    engine.Infinity,
	}
	ts.writes = append(ts.writes, rec)
	ts.lastWrite[addr] = ts.seq
	st := tr.addrState(addr)
	st.isRelease = false
	st.pub = nil
	st.writer = Stamp{tid, ts.seq}
	return st.writer
}

// OnRelease records a release write by tid to addr and returns its stamp.
// The release publishes a clock covering everything acquired so far plus
// the release itself; a later acquire that reads this value joins it.
func (tr *Tracker) OnRelease(tid int, addr isa.Addr) Stamp {
	ts := &tr.threads[tid]
	ts.seq++
	ts.relCount++
	ts.relSeq = append(ts.relSeq, ts.seq)
	rec := writeRec{
		addr:         addr,
		acq:          ts.acq,
		prevSameAddr: ts.lastWrite[addr],
		relIdx:       ts.relCount,
		durableAt:    engine.Infinity,
	}
	ts.writes = append(ts.writes, rec)
	ts.lastWrite[addr] = ts.seq
	st := tr.addrState(addr)
	st.isRelease = true
	st.pub = ts.acq.WithRelease(tid, ts.relCount)
	st.writer = Stamp{tid, ts.seq}
	return st.writer
}

// OnAcquire records an acquire read by tid of addr. If the current value
// at addr was produced by a release of *another* thread, the acquire
// synchronizes with it and tid's clock advances. Reading one's own
// release does not synchronize (the paper's sw relation requires i ≠ j),
// and correspondingly LRP hardware does not order a thread's later plain
// writes after its own earlier releases.
func (tr *Tracker) OnAcquire(tid int, addr isa.Addr) {
	st := tr.addrs[addr]
	if st == nil || !st.isRelease || st.writer.Tid == tid {
		return
	}
	ts := &tr.threads[tid]
	ts.acq = ts.acq.Join(st.pub)
}

func (tr *Tracker) addrState(addr isa.Addr) *addrState {
	st := tr.addrs[addr]
	if st == nil {
		st = &addrState{}
		tr.addrs[addr] = st
	}
	return st
}

// SetPersisted records that write s's persist acked at time t. The write
// is durable from t unless it already was earlier (SetTorn). A write is
// persisted only once; later coalesced persists of the same line carry
// fresh stamps for fresh writes.
func (tr *Tracker) SetPersisted(s Stamp, t engine.Time) {
	if s.IsZero() {
		return
	}
	rec := &tr.threads[s.Tid].writes[s.Seq-1]
	if rec.durableAt > t {
		rec.durableAt = t
	}
}

// SetTorn records that write s's persist started at start and tears: a
// crash while it is in flight finds the words in mask (bit i: word i of
// the line) durable, and no others. If s's word is among them, s is in
// every crash image from start on, so it is durable from then.
func (tr *Tracker) SetTorn(s Stamp, start engine.Time, mask uint64) {
	if s.IsZero() {
		return
	}
	word := uint64(tr.threads[s.Tid].writes[s.Seq-1].addr) >> 3 & (isa.WordsPerLine - 1)
	if mask&(1<<word) != 0 {
		tr.SetPersisted(s, start)
	}
}

// DurableAt returns when write s first shows in a crash image
// (engine.Infinity if never): when its persist acked, or when a torn
// persist that carried its word started, whichever is earlier. Without
// tearing it is the ack.
func (tr *Tracker) DurableAt(s Stamp) engine.Time {
	return tr.threads[s.Tid].writes[s.Seq-1].durableAt
}

// AcquireClock exposes thread tid's current acquire clock (for tests).
func (tr *Tracker) AcquireClock(tid int) VC { return tr.threads[tid].acq }

// WriteInfo exposes a write's metadata for diagnostics and tooling: its
// address, release index (0 for plain writes) and acquire clock.
func (tr *Tracker) WriteInfo(s Stamp) (addr isa.Addr, relIdx uint32, acq VC) {
	rec := &tr.threads[s.Tid].writes[s.Seq-1]
	return rec.addr, rec.relIdx, rec.acq
}

// ReleaseSeq returns the write seq of thread tid's k-th release (1-based).
func (tr *Tracker) ReleaseSeq(tid int, k uint32) uint64 { return tr.threads[tid].relSeq[k-1] }
