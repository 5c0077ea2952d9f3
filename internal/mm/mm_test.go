package mm

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"lrp/internal/isa"
)

// pages reports how many pages m has materialized.
func pages(m *Memory) int {
	n := 0
	m.pages.Range(func(_ uint64, e *pageEntry) bool {
		if e.p != nil {
			n++
		}
		return true
	})
	return n
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Read(0x1000) != 0 {
		t.Fatal("unwritten word should read zero")
	}
	if pages(m) != 0 {
		t.Fatal("read must not materialize pages")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 42)
	m.Write(0x1008, 43)
	if m.Read(0x1000) != 42 || m.Read(0x1008) != 43 {
		t.Fatal("read-back mismatch")
	}
	m.Write(0x1000, 7)
	if m.Read(0x1000) != 7 {
		t.Fatal("overwrite failed")
	}
	if pages(m) != 1 {
		t.Fatalf("expected 1 page, got %d", pages(m))
	}
}

func TestMemoryUnalignedPanics(t *testing.T) {
	m := NewMemory()
	for _, f := range []func(){
		func() { m.Read(0x1001) },
		func() { m.Write(0x1001, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on unaligned access")
				}
			}()
			f()
		}()
	}
}

func TestMemoryLineOps(t *testing.T) {
	m := NewMemory()
	var words [isa.WordsPerLine]uint64
	for i := range words {
		words[i] = uint64(i * 100)
	}
	m.WriteLine(0x2040, words)
	got := m.ReadLine(0x2040 + 8) // any address within the line
	if got != words {
		t.Fatalf("line round-trip mismatch: %v != %v", got, words)
	}
	// Individual words visible too.
	if m.Read(0x2040+16) != 200 {
		t.Fatal("word within written line wrong")
	}
}

// Property: words written at distinct aligned addresses are all readable
// back, including across page boundaries.
func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(offsets []uint16, vals []uint64) bool {
		m := NewMemory()
		want := map[isa.Addr]uint64{}
		for i, off := range offsets {
			if i >= len(vals) {
				break
			}
			a := isa.Addr(uint64(off) * 8)
			m.Write(a, vals[i])
			want[a] = vals[i]
		}
		for a, v := range want {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	c := m.Clone()
	m.Write(0x1000, 2)
	m.Write(0x9000, 3)
	if c.Read(0x1000) != 1 {
		t.Fatal("clone not isolated from later writes")
	}
	if c.Read(0x9000) != 0 {
		t.Fatal("clone saw post-clone page")
	}
}

func TestArenaAlloc(t *testing.T) {
	a := NewArena(0x10000, 1<<20)
	p1 := a.Alloc(3) // 3 words -> one line
	p2 := a.Alloc(8) // exactly one line
	p3 := a.Alloc(9) // two lines
	p4 := a.Alloc(1)
	if p1%isa.LineSize != 0 || p2%isa.LineSize != 0 || p3%isa.LineSize != 0 {
		t.Fatal("allocations must be line-aligned")
	}
	if p2 != p1+isa.LineSize {
		t.Fatalf("p2 = %v, want %v", p2, p1+isa.LineSize)
	}
	if p3 != p2+isa.LineSize {
		t.Fatalf("p3 = %v, want %v", p3, p2+isa.LineSize)
	}
	if p4 != p3+2*isa.LineSize {
		t.Fatalf("p4 = %v, want %v", p4, p3+2*isa.LineSize)
	}
	if used := a.next - a.base; used != 5*isa.LineSize {
		t.Fatalf("used = %d", used)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(0x10000, 128) // two lines
	a.Alloc(8)
	a.Alloc(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	a.Alloc(1)
}

func TestArenaBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive alloc")
		}
	}()
	NewArena(0x10000, 1024).Alloc(0)
}

func TestThreadArenasDisjoint(t *testing.T) {
	a0 := ThreadArena(0)
	a1 := ThreadArena(1)
	p0 := a0.Alloc(4)
	p1 := a1.Alloc(4)
	in := func(a *Arena, p isa.Addr) bool { return p >= a.base && p < a.limit }
	if in(a0, p1) || in(a1, p0) {
		t.Fatal("thread arenas overlap")
	}
	// Static region is disjoint from all thread arenas.
	s := StaticArena()
	ps := s.Alloc(4)
	if in(a0, ps) {
		t.Fatal("static region overlaps arena 0")
	}
}

// Property: allocations from one arena never overlap, at line granularity.
func TestArenaDisjointProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewArena(0x100000, 16<<20)
		seen := map[isa.Addr]bool{}
		for _, s := range sizes {
			n := int(s%32) + 1
			p := a.Alloc(n)
			lines := (n*isa.WordSize + isa.LineSize - 1) / isa.LineSize
			for l := 0; l < lines; l++ {
				line := p.Line() + isa.Addr(l*isa.LineSize)
				if seen[line] {
					return false
				}
				seen[line] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadSetUnreadLineNotTouched(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	m.Watch()
	m.Read(0x1000)
	m.Write(0x1040, 2) // next line, same page
	m.WriteLine(0x1f80, [isa.WordsPerLine]uint64{3})
	if m.Swap(0x1080, 4) != 0 {
		t.Fatal("Swap returned the wrong old word")
	}
	if m.Touched() {
		t.Fatal("writes to unread lines of a read page counted as a touch")
	}
}

func TestReadSetWriteToReadLineTouches(t *testing.T) {
	for _, tc := range []struct {
		name  string
		read  func(m *Memory)
		write func(m *Memory)
	}{
		{"Read/Write", func(m *Memory) { m.Read(0x1008) }, func(m *Memory) { m.Write(0x1038, 9) }},
		{"Read/WriteLine", func(m *Memory) { m.Read(0x1008) }, func(m *Memory) { m.WriteLine(0x1000, [isa.WordsPerLine]uint64{9}) }},
		{"ReadLine/Write", func(m *Memory) { m.ReadLine(0x1000) }, func(m *Memory) { m.Write(0x1010, 9) }},
		{"ReadLine/WriteLine", func(m *Memory) { m.ReadLine(0x1000) }, func(m *Memory) { m.WriteLine(0x1020, [isa.WordsPerLine]uint64{9}) }},
		{"Read/Swap", func(m *Memory) { m.Read(0x1008) }, func(m *Memory) { m.Swap(0x1000, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemory()
			m.Write(0x1000, 1)
			m.Write(0x9000, 1) // a second page, so the memo moves between them
			m.Watch()
			tc.read(m)
			m.Read(0x9000)
			if m.Touched() {
				t.Fatal("reads alone counted as a touch")
			}
			tc.write(m)
			if !m.Touched() {
				t.Fatal("write to a read line not counted as a touch")
			}
		})
	}
}

func TestReadSetAbsentPageLine(t *testing.T) {
	for _, read := range []func(m *Memory){
		func(m *Memory) { m.Read(0x5008) },
		func(m *Memory) { m.ReadLine(0x5000) },
	} {
		m := NewMemory()
		m.Write(0x1000, 1)
		m.Watch()
		read(m)
		if got := m.Reads(); !slices.Equal(got, []isa.Addr{0x5000}) {
			t.Fatalf("read log %v, want the missing page's line", got)
		}
		m.Write(0x1000, 2) // an existing page: no touch
		m.Write(0x5fc0, 3) // creates the page, on another line
		if m.Touched() {
			t.Fatal("a write to a line no read looked at counted as a touch")
		}
		if pages(m) != 2 {
			t.Fatalf("%d pages, want 2", pages(m))
		}
		m.Write(0x5010, 4)
		if got := m.Written(); !slices.Equal(got, []isa.Addr{0x5000}) {
			t.Fatalf("written %v, want the line the read found missing", got)
		}
	}
	m := NewMemory()
	m.Watch()
	m.Read(0x5000)
	if pages(m) != 0 {
		t.Fatalf("a read of a missing page made %d pages", pages(m))
	}
	m.Write(0x6000, 1) // creates another page
	if m.Touched() {
		t.Fatal("creating a page no read looked for counted as a touch")
	}
}

// Each Watch starts a read log of its own, but a line stays watched until
// it is written, whichever log it was read under: a reader divided into
// parts keeps every part's lines watched while it re-reads only some.
func TestReadSetLogsPerWatch(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	m.Write(0x1040, 1)
	m.Write(0x9000, 1)
	if m.Touched() {
		t.Fatal("unwatched memory reports a touch")
	}
	m.Watch() // part A
	m.Read(0x1000)
	m.Read(0x9000)
	m.Read(0x1008) // same line again: logged once
	if got := m.Reads(); !slices.Equal(got, []isa.Addr{0x1000, 0x9000}) {
		t.Fatalf("part A read log %v", got)
	}
	m.Watch() // part B reads a line A read too
	m.ReadLine(0x1000)
	m.Read(0x1040)
	if got := m.Reads(); !slices.Equal(got, []isa.Addr{0x1000, 0x1040}) {
		t.Fatalf("part B read log %v", got)
	}
	m.Write(0x1000, 2)
	m.Write(0x1010, 2) // the line is no longer watched: logged once
	if !m.Touched() {
		t.Fatal("write to a read line not counted as a touch")
	}
	if got := m.Written(); !slices.Equal(got, []isa.Addr{0x1000}) {
		t.Fatalf("written %v, want the line both parts read, once", got)
	}
	if m.Touched() {
		t.Fatal("Written did not clear Touched")
	}
	m.Watch()
	m.Write(0x9000, 2) // read under part A's Watch only, never written since
	if got := m.Written(); !slices.Equal(got, []isa.Addr{0x9000}) {
		t.Fatalf("written %v: a new Watch dropped an earlier part's line", got)
	}
	m.Write(0x1000, 3) // written since its last read: not watched
	if m.Touched() {
		t.Fatal("a line written since its last read is still watched")
	}
}

// A write batch logs a watched line only if the batch changed its
// content; a line it restored stays watched, and unwatched lines stay
// unlogged.
func TestWriteBatchLogsOnlyChangedLines(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	m.Write(0x2000, 1)
	m.Watch()
	m.Read(0x1000)
	m.Read(0x2000)
	m.Read(0x3000) // a hole: the batch creates its page
	m.BeginBatch()
	old := m.Swap(0x1008, 7) // laid, then restored
	m.Write(0x1008, old)
	m.Write(0x2000, 5) // changed, then changed again
	m.WriteLine(0x2000, [isa.WordsPerLine]uint64{6})
	m.Write(0x3000, 0) // same content in a new page
	m.Write(0x4000, 9) // never read
	if m.Touched() {
		t.Fatal("a batch logged a line before it ended")
	}
	m.EndBatch()
	if got := m.Written(); !slices.Equal(got, []isa.Addr{0x2000}) {
		t.Fatalf("written %v, want only the changed line", got)
	}
	m.Write(0x1000, 2) // the restored line is still watched
	m.Write(0x3000, 2)
	if got := m.Written(); !slices.Equal(got, []isa.Addr{0x1000, 0x3000}) {
		t.Fatalf("written %v, want the lines the batch left as they were", got)
	}
}

// A memory that never watches logs nothing and allocates nothing on an
// access to an existing page.
func TestUnwatchedMemoryLogsNothing(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	m.Write(0x9000, 1)
	allocs := testing.AllocsPerRun(100, func() {
		m.Write(0x1008, m.Read(0x9000))
		m.WriteLine(0x9040, m.ReadLine(0x1000))
		m.Swap(0x1010, 3)
		m.Read(0x20000) // a missing page
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per access round, want 0", allocs)
	}
	if m.Touched() || len(m.Reads()) != 0 || len(m.Written()) != 0 || pages(m) != 2 {
		t.Fatal("an unwatched memory logged reads or writes")
	}
}

func TestMemoKeyed(t *testing.T) {
	m := NewMemory()
	a, b := new(int), new(int)
	if m.Memo(a) != nil {
		t.Fatal("empty memory holds a memo")
	}
	m.SetMemo(a, "A")
	if m.Memo(a) != "A" || m.Memo(b) != nil {
		t.Fatal("memo not keyed")
	}
	m.SetMemo(b, "B")
	if m.Memo(a) != nil || m.Memo(b) != "B" {
		t.Fatal("SetMemo did not replace the other key's memo")
	}
	if m.Clone().Memo(b) != nil {
		t.Fatal("clone inherited the memo")
	}
}

func TestReadSetIgnoredByCloneAndEqual(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 1)
	o := m.Clone()
	m.Watch()
	m.Read(0x1000)
	m.Read(0x7000)
	if !m.Equal(o) || !o.Equal(m) {
		t.Fatal("read marks changed Equal")
	}
	c := m.Clone()
	if c.Touched() {
		t.Fatal("clone inherited Touched")
	}
	c.Write(0x1000, 2)
	c.Write(0x7000, 2)
	if c.Touched() {
		t.Fatal("clone inherited the read set")
	}
	if m.Touched() || m.Read(0x1000) != 1 {
		t.Fatal("writes to the clone reached the original")
	}
}

// A page stays 4096 bytes: the read marks live in the page table, since
// one more word would put every page in Go's 4864-byte size class.
func TestPageSize(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n != 1<<pageShift {
		t.Fatalf("page is %d bytes, want %d", n, 1<<pageShift)
	}
}
