// Package mm provides the simulated physical memory that the machine
// model operates on: a sparse, paged, word-addressable store used for
// both the architectural (visible) image and the persisted (NVM) image,
// plus the arena allocator from which simulated programs carve their
// nodes.
//
// Keeping memory content inside the simulator — rather than using native
// Go objects for data-structure nodes — is what makes crash simulation
// meaningful: after a simulated crash, recovery code is given only the
// persisted image and must rebuild the structure from raw words, exactly
// as a real post-crash process would from NVM.
package mm

import (
	"fmt"

	"lrp/internal/flat"
	"lrp/internal/isa"
)

// pageShift selects 4KiB pages (512 words).
const pageShift = 12
const pageWords = 1 << (pageShift - 3)

// linesPerPage is 64, so a page's read marks fit one uint64.
const linesPerPage = 1 << (pageShift - isa.LineShift)

type page [pageWords]uint64

// pageEntry is a page-table slot: the page plus its read-set marks, kept
// beside the page so that a page stays exactly 4096 bytes (a larger page
// would fall into Go's next allocation size class). Bit i of mask is set
// while line i is watched: read since it was last written. Bit i of umask
// is set when line i was read since the Watch that stamped epoch. A slot
// with a nil page is a hole: a watched read found the page missing, and
// the slot keeps that read's marks until a write creates the page.
type pageEntry struct {
	p     *page
	mask  uint64
	epoch uint64
	umask uint64
}

// Memory is a sparse word-addressable store. The zero value is an empty
// memory in which every word reads as zero. Memory is not safe for
// concurrent use; the simulator is single-threaded by construction.
//
// Pages are located through a flat open-addressing table (the last map
// on the line-persist hot path); each page is its own allocation so the
// table growing never copies page contents.
//
// A Memory can also watch its reads, for a reader that derives something
// from the contents alone and wants to reuse it while what it read stays
// put. From the first Watch on, every line read is watched until it is
// written; the first write to a watched line logs the line (Written) and
// sets Touched. Each Watch also starts a read log (Reads): the lines read
// since, so a reader divided into parts can tell which part read which
// line. A memory that never watches logs nothing and pays one branch per
// access. The reader's state can live with the memory (Memo). A writer
// that rewrites lines and restores some of them can batch its writes
// (BeginBatch), so that only the lines whose content changed are logged.
type Memory struct {
	pages flat.Table[pageEntry]

	// lastPN/lastPage/lastEnt memoize the most recently touched page and
	// its table slot. Line persists and word accesses cluster heavily, so
	// most probes skip the table lookup entirely. An insert may move the
	// table's slots; lastEnt stays valid because pageFor, the only code
	// that inserts into a table in use, re-points it after every insert.
	// A hole is memoized with a nil lastPage, so only its marks use it.
	lastPN   uint64
	lastPage *page
	lastEnt  *pageEntry

	// epoch is the current read log's stamp (0: never watched). reads is
	// that log; written lists the watched lines written since the last
	// Written call.
	epoch   uint64
	reads   []isa.Addr
	written []isa.Addr

	// batching is set between BeginBatch and EndBatch; held lists the
	// watched lines written in the batch, each with its content before.
	batching bool
	held     []heldLine

	memoKey, memo any
}

// heldLine is a watched line written in a batch and what it held before.
type heldLine struct {
	line  isa.Addr
	words [isa.WordsPerLine]uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{}
}

// pageFor returns a's page, creating it when create is set. While the
// memory watches, a missing page a read asks for gets a hole, so that
// lastEnt is a's slot whenever the memory watches.
func (m *Memory) pageFor(a isa.Addr, create bool) *page {
	pn := uint64(a) >> pageShift
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	e := m.pages.Ptr(pn)
	if e == nil || e.p == nil {
		if !create && m.epoch == 0 {
			return nil
		}
		if e == nil {
			e, _ = m.pages.Upsert(pn)
		}
		if create {
			e.p = new(page)
		}
	}
	m.lastPN, m.lastPage, m.lastEnt = pn, e.p, e
	return e.p
}

// lineBit is a's bit in its page's read mask.
func lineBit(a isa.Addr) uint64 {
	return 1 << ((uint64(a) >> isa.LineShift) & (linesPerPage - 1))
}

// markRead watches a's line and logs it the first time the current read
// log sees it; a's slot is the memoized one.
func (m *Memory) markRead(a isa.Addr) {
	e, bit := m.lastEnt, lineBit(a)
	e.mask |= bit
	if e.epoch != m.epoch {
		e.epoch, e.umask = m.epoch, 0
	}
	if e.umask&bit == 0 {
		e.umask |= bit
		m.reads = append(m.reads, a.Line())
	}
}

// noteWrite logs a's line if it is watched and stops watching it; in a
// batch it holds the line and its content instead, for EndBatch. a's
// slot and page are the memoized ones.
func (m *Memory) noteWrite(a isa.Addr) {
	if e, bit := m.lastEnt, lineBit(a); e.mask&bit != 0 {
		e.mask &^= bit
		if !m.batching {
			m.written = append(m.written, a.Line())
			return
		}
		h := heldLine{line: a.Line()}
		w := (uint64(h.line) >> 3) & (pageWords - 1)
		copy(h.words[:], m.lastPage[w:w+isa.WordsPerLine])
		m.held = append(m.held, h)
	}
}

// BeginBatch starts a write batch: until EndBatch, a write to a watched
// line is logged only if the line's content at EndBatch differs from
// what it held at its first write in the batch. The batch must not read.
func (m *Memory) BeginBatch() { m.batching = true }

// EndBatch ends the write batch. Each line the batch wrote is logged
// (Written) if its content changed; one it left as it was stays watched.
func (m *Memory) EndBatch() {
	m.batching = false
	for i := range m.held {
		h := &m.held[i]
		p := m.pageFor(h.line, false)
		w := (uint64(h.line) >> 3) & (pageWords - 1)
		if [isa.WordsPerLine]uint64(p[w:w+isa.WordsPerLine]) != h.words {
			m.written = append(m.written, h.line)
		} else {
			m.lastEnt.mask |= lineBit(h.line)
		}
	}
	m.held = m.held[:0]
}

// Watch starts a new, empty read log in O(1). Until the next Watch, Read
// and ReadLine add the line they read to it (once), and watch the line.
func (m *Memory) Watch() {
	m.epoch++
	m.reads = m.reads[:0]
}

// Reads returns the lines read since the last Watch, each once, in the
// order first read. The slice is valid until the next Watch.
func (m *Memory) Reads() []isa.Addr { return m.reads }

// Touched reports whether a write hit a watched line since the last
// Written call. While it is false, every watched line holds what it held
// when it was last read.
func (m *Memory) Touched() bool { return len(m.written) > 0 }

// Written returns the watched lines written since its last call, each
// once, and clears Touched. A line is watched again only once it is read
// again. The slice is valid until the next write.
func (m *Memory) Written() []isa.Addr {
	w := m.written
	m.written = m.written[:0]
	return w
}

// Memo returns the value SetMemo last stored under key, or nil if the
// memory holds none or holds another key's.
func (m *Memory) Memo(key any) any {
	if m.memoKey != key {
		return nil
	}
	return m.memo
}

// SetMemo stores v under key, replacing whatever the memory held: a
// reader keeps here what it derived from the contents, beside the read
// set that says when it went stale.
func (m *Memory) SetMemo(key, v any) { m.memoKey, m.memo = key, v }

// Read returns the word at a (zero if never written).
func (m *Memory) Read(a isa.Addr) uint64 {
	if !a.Aligned() {
		panic(fmt.Sprintf("mm: unaligned read at %v", a))
	}
	p := m.pageFor(a, false)
	if m.epoch != 0 {
		m.markRead(a)
	}
	if p == nil {
		return 0
	}
	return p[(uint64(a)>>3)&(pageWords-1)]
}

// Write stores v at a.
func (m *Memory) Write(a isa.Addr, v uint64) {
	if !a.Aligned() {
		panic(fmt.Sprintf("mm: unaligned write at %v", a))
	}
	p := m.pageFor(a, true)
	if m.epoch != 0 {
		m.noteWrite(a)
	}
	p[(uint64(a)>>3)&(pageWords-1)] = v
}

// Swap stores v at a and returns the word it replaced. It is a write, not
// a read: the line does not join the read set.
func (m *Memory) Swap(a isa.Addr, v uint64) uint64 {
	if !a.Aligned() {
		panic(fmt.Sprintf("mm: unaligned write at %v", a))
	}
	p := m.pageFor(a, true)
	if m.epoch != 0 {
		m.noteWrite(a)
	}
	w := &p[(uint64(a)>>3)&(pageWords-1)]
	old := *w
	*w = v
	return old
}

// ReadLine copies the cache line containing a into a word array. A line
// never straddles a page (LineSize divides the page size), so the whole
// copy costs one page probe.
func (m *Memory) ReadLine(a isa.Addr) [isa.WordsPerLine]uint64 {
	var out [isa.WordsPerLine]uint64
	base := a.Line()
	p := m.pageFor(base, false)
	if m.epoch != 0 {
		m.markRead(base)
	}
	if p != nil {
		w := (uint64(base) >> 3) & (pageWords - 1)
		copy(out[:], p[w:w+isa.WordsPerLine])
	}
	return out
}

// WriteLine stores a full cache line at the line containing a.
func (m *Memory) WriteLine(a isa.Addr, words [isa.WordsPerLine]uint64) {
	base := a.Line()
	p := m.pageFor(base, true)
	if m.epoch != 0 {
		m.noteWrite(base)
	}
	w := (uint64(base) >> 3) & (pageWords - 1)
	copy(p[w:w+isa.WordsPerLine], words[:])
}

// Equal reports whether the two memories hold identical contents, with
// never-written words reading as zero on both sides. Read sets do not
// count.
// api:keep — image comparison for the tests of four packages.
func (m *Memory) Equal(o *Memory) bool {
	var zero page
	eq := func(a, b *Memory) bool {
		equal := true
		a.pages.Range(func(pn uint64, e *pageEntry) bool {
			if e.p == nil {
				return true
			}
			q := &zero
			if qe := b.pages.Ptr(pn); qe != nil && qe.p != nil {
				q = qe.p
			}
			if *e.p != *q {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	return eq(m, o) && eq(o, m)
}

// Clone returns a deep copy of the memory. Crash snapshots use this to
// freeze the NVM image at the crash instant. The copy has no read set
// and no memo.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	m.pages.Range(func(pn uint64, e *pageEntry) bool {
		if e.p == nil {
			return true
		}
		cp := *e.p
		ce, _ := c.pages.Upsert(pn)
		ce.p = &cp
		return true
	})
	return c
}
