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

type page [pageWords]uint64

// Memory is a sparse word-addressable store. The zero value is an empty
// memory in which every word reads as zero. Memory is not safe for
// concurrent use; the simulator is single-threaded by construction.
//
// Pages are located through a flat open-addressing table (the last map
// on the line-persist hot path); each page is its own allocation so the
// table growing never copies page contents.
type Memory struct {
	pages flat.Table[*page]

	// lastPN/lastPage memoize the most recently touched page. Line
	// persists and word accesses cluster heavily, so most probes skip
	// the table lookup entirely.
	lastPN   uint64
	lastPage *page

	// gen counts Write and WriteLine calls: equal generations of one
	// Memory mean equal contents.
	gen uint64
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
	var p *page
	if pp := m.pages.Ptr(pn); pp != nil {
		p = *pp
	} else if create {
		p = new(page)
		pp, _ := m.pages.Upsert(pn)
		*pp = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// Read returns the word at a (zero if never written).
func (m *Memory) Read(a isa.Addr) uint64 {
	if !a.Aligned() {
		panic(fmt.Sprintf("mm: unaligned read at %v", a))
	}
	p := m.pageFor(a, false)
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
	p[(uint64(a)>>3)&(pageWords-1)] = v
	m.gen++
}

// ReadLine copies the cache line containing a into a word array. A line
// never straddles a page (LineSize divides the page size), so the whole
// copy costs one page probe.
func (m *Memory) ReadLine(a isa.Addr) [isa.WordsPerLine]uint64 {
	var out [isa.WordsPerLine]uint64
	base := a.Line()
	if p := m.pageFor(base, false); p != nil {
		w := (uint64(base) >> 3) & (pageWords - 1)
		copy(out[:], p[w:w+isa.WordsPerLine])
	}
	return out
}

// WriteLine stores a full cache line at the line containing a.
func (m *Memory) WriteLine(a isa.Addr, words [isa.WordsPerLine]uint64) {
	base := a.Line()
	p := m.pageFor(base, true)
	w := (uint64(base) >> 3) & (pageWords - 1)
	copy(p[w:w+isa.WordsPerLine], words[:])
	m.gen++
}

// Gen returns the memory's write generation, bumped by every Write and
// WriteLine. A reader that saw generation g of this Memory may reuse what
// it derived from the contents while Gen() is still g.
func (m *Memory) Gen() uint64 { return m.gen }

// Pages reports how many pages have been materialized.
func (m *Memory) Pages() int { return m.pages.Len() }

// Equal reports whether the two memories hold identical contents, with
// never-written words reading as zero on both sides.
func (m *Memory) Equal(o *Memory) bool {
	var zero page
	eq := func(a, b *Memory) bool {
		equal := true
		a.pages.Range(func(pn uint64, p **page) bool {
			q := &zero
			if qp := b.pages.Ptr(pn); qp != nil {
				q = *qp
			}
			if **p != *q {
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
// freeze the NVM image at the crash instant.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	m.pages.Range(func(pn uint64, p **page) bool {
		cp := **p
		pp, _ := c.pages.Upsert(pn)
		*pp = &cp
		return true
	})
	return c
}
