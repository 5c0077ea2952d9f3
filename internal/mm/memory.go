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
	"slices"

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
// when line i was read since the Watch that stamped epoch.
type pageEntry struct {
	p     *page
	epoch uint64
	mask  uint64
}

// Memory is a sparse word-addressable store. The zero value is an empty
// memory in which every word reads as zero. Memory is not safe for
// concurrent use; the simulator is single-threaded by construction.
//
// Pages are located through a flat open-addressing table (the last map
// on the line-persist hot path); each page is its own allocation so the
// table growing never copies page contents.
//
// A Memory can also track a read set (Watch): which lines were read since
// the last Watch, and whether any write has since hit one of them
// (Touched). A reader that derived something from the contents alone may
// reuse it while Touched is false. Memories that never call Watch pay one
// branch per access.
type Memory struct {
	pages flat.Table[pageEntry]

	// lastPN/lastPage/lastEnt memoize the most recently touched page and
	// its table slot. Line persists and word accesses cluster heavily, so
	// most probes skip the table lookup entirely. An insert may move the
	// table's slots; lastEnt stays valid because pageFor, the only code
	// that inserts into a table in use, re-points it after every insert.
	lastPN   uint64
	lastPage *page
	lastEnt  *pageEntry

	// epoch is the current read set's stamp (0: never watched). absent
	// lists the pages a read found missing since the last Watch: creating
	// one of them counts as a touch. touched reports that a write hit the
	// read set.
	epoch   uint64
	absent  []uint64
	touched bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{}
}

func (m *Memory) pageFor(a isa.Addr, create bool) *page {
	pn := uint64(a) >> pageShift
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	var e *pageEntry
	if e = m.pages.Ptr(pn); e == nil && create {
		if m.epoch != 0 && slices.Contains(m.absent, pn) {
			m.touched = true
		}
		e, _ = m.pages.Upsert(pn)
		e.p = new(page)
	}
	if e == nil {
		if m.epoch != 0 {
			if n := len(m.absent); n == 0 || m.absent[n-1] != pn {
				m.absent = append(m.absent, pn)
			}
		}
		return nil
	}
	m.lastPN, m.lastPage, m.lastEnt = pn, e.p, e
	return e.p
}

// lineBit is a's bit in its page's read mask.
func lineBit(a isa.Addr) uint64 {
	return 1 << ((uint64(a) >> isa.LineShift) & (linesPerPage - 1))
}

// markRead adds a's line to the read set; a's page is the memoized one.
func (m *Memory) markRead(a isa.Addr) {
	e := m.lastEnt
	if e.epoch != m.epoch {
		e.epoch, e.mask = m.epoch, 0
	}
	e.mask |= lineBit(a)
}

// noteWrite records a touch if a's line is in the read set; a's page is
// the memoized one.
func (m *Memory) noteWrite(a isa.Addr) {
	if e := m.lastEnt; e.epoch == m.epoch && e.mask&lineBit(a) != 0 {
		m.touched = true
	}
}

// Watch starts a new, empty read set in O(1) and clears Touched. Until
// the next Watch, Read and ReadLine add the line they read to the set, and
// any write to a line in it (or creation of a page a read found missing)
// sets Touched.
func (m *Memory) Watch() {
	m.epoch++
	m.absent = m.absent[:0]
	m.touched = false
}

// Touched reports whether a write hit the read set since the last Watch.
// While it is false, every line read since then holds what it held when
// it was read.
func (m *Memory) Touched() bool { return m.touched }

// Read returns the word at a (zero if never written).
func (m *Memory) Read(a isa.Addr) uint64 {
	if !a.Aligned() {
		panic(fmt.Sprintf("mm: unaligned read at %v", a))
	}
	p := m.pageFor(a, false)
	if p == nil {
		return 0
	}
	if m.epoch != 0 {
		m.markRead(a)
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
	if p := m.pageFor(base, false); p != nil {
		if m.epoch != 0 {
			m.markRead(base)
		}
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

// Pages reports how many pages have been materialized.
func (m *Memory) Pages() int { return m.pages.Len() }

// Equal reports whether the two memories hold identical contents, with
// never-written words reading as zero on both sides. Read sets do not
// count.
func (m *Memory) Equal(o *Memory) bool {
	var zero page
	eq := func(a, b *Memory) bool {
		equal := true
		a.pages.Range(func(pn uint64, e *pageEntry) bool {
			q := &zero
			if qe := b.pages.Ptr(pn); qe != nil {
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
// freeze the NVM image at the crash instant. The copy has no read set.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	m.pages.Range(func(pn uint64, e *pageEntry) bool {
		cp := *e.p
		ce, _ := c.pages.Upsert(pn)
		ce.p = &cp
		return true
	})
	return c
}
