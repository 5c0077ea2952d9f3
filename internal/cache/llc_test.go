package cache

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"lrp/internal/engine"
	"lrp/internal/flat"
	"lrp/internal/isa"
)

// denseLLC is the reference layout the LLC replaced: every touched set
// materializes a full ways-block with per-way valid flags, and a fill
// takes the first invalid way, else the least recently used one. It
// shares LLC's set hashing, so the two differ only in how a set stores
// its lines.
type denseLLC struct {
	idx  func(isa.Addr) uint64
	sets map[uint64][]denseLine
	ways int
	tick uint64
}

type denseLine struct {
	addr  isa.Addr
	valid bool
	dirty bool
	lru   uint64
}

func newDenseLLC(c *LLC) *denseLLC {
	return &denseLLC{idx: c.setIndex, sets: map[uint64][]denseLine{}, ways: c.ways}
}

func (d *denseLLC) find(line isa.Addr) *denseLine {
	s := d.sets[d.idx(line)]
	for i := range s {
		if s[i].valid && s[i].addr == line {
			return &s[i]
		}
	}
	return nil
}

func (d *denseLLC) Access(line isa.Addr) bool {
	if l := d.find(line); l != nil {
		d.tick++
		l.lru = d.tick
		return true
	}
	return false
}

func (d *denseLLC) Fill(line isa.Addr) (isa.Addr, bool, bool) {
	k := d.idx(line)
	s, ok := d.sets[k]
	if !ok {
		s = make([]denseLine, d.ways)
		d.sets[k] = s
	}
	victim := 0
	for i := range s {
		if s[i].valid && s[i].addr == line {
			d.tick++
			s[i].lru = d.tick
			return 0, false, false
		}
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	v := &s[victim]
	var ev isa.Addr
	var dirty, had bool
	if v.valid {
		ev, dirty, had = v.addr, v.dirty, true
	}
	d.tick++
	*v = denseLine{addr: line, valid: true, lru: d.tick}
	return ev, dirty, had
}

func (d *denseLLC) setDirty(line isa.Addr, dirty bool) {
	if l := d.find(line); l != nil {
		l.dirty = dirty
	}
}

func (d *denseLLC) DirtyLines() []isa.Addr {
	var out []isa.Addr
	for _, s := range d.sets { // maprange:ok — sorted below
		for i := range s {
			if s[i].valid && s[i].dirty {
				out = append(out, s[i].addr)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestLLCMatchesDenseLayout drives the resident-line LLC and the dense
// reference with the same seeded operation sequences on a tiny geometry
// (8 sets × 4 ways over 64 lines, so full sets and evictions are common)
// and requires every return value and the dirty-line set to agree after
// every step.
func TestLLCMatchesDenseLayout(t *testing.T) {
	const (
		seeds = 200
		steps = 400
		lines = 64
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		r := engine.NewRand(seed)
		c := NewLLC(8*4*isa.LineSize, 4, 1)
		d := newDenseLLC(c)
		for step := 0; step < steps; step++ {
			a := line(r.Intn(lines))
			switch op := r.Intn(4); op {
			case 0:
				ev, dirty, had := c.Fill(a)
				wev, wdirty, whad := d.Fill(a)
				if ev != wev || dirty != wdirty || had != whad {
					t.Fatalf("seed %d step %d: Fill(%v) = (%v, %v, %v), dense (%v, %v, %v)",
						seed, step, a, ev, dirty, had, wev, wdirty, whad)
				}
			case 1:
				if got, want := c.Access(a), d.Access(a); got != want {
					t.Fatalf("seed %d step %d: Access(%v) = %v, dense %v", seed, step, a, got, want)
				}
			case 2:
				c.MarkDirty(a)
				d.setDirty(a, true)
			case 3:
				c.MarkClean(a)
				d.setDirty(a, false)
			}
			if got, want := c.DirtyLines(), d.DirtyLines(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: DirtyLines = %v, dense %v", seed, step, got, want)
			}
		}
	}
}

// distinctSetLines returns n line addresses of c that map to n distinct
// sets, scattered over a wide address range.
func distinctSetLines(c *LLC, n int) []isa.Addr {
	out := make([]isa.Addr, 0, n)
	seen := make(map[uint64]bool, n)
	for i := 0; len(out) < n; i++ {
		a := line(i * 977)
		if k := c.setIndex(a); !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLLCAllocatesResidentLinesOnly pins what a sparse working set costs
// a default-geometry LLC (Table 1: 64 MiB, 16-way): one line in each of
// n sets may allocate at most the set table plus two llcLines per line.
// A layout that materializes full ways-blocks (16 lines per set) fails.
func TestLLCAllocatesResidentLinesOnly(t *testing.T) {
	const n = 4096
	geom := NewLLC(64<<20, 16, 64)
	lines := distinctSetLines(geom, n)
	// The set table alone: the same set indices upserted into an empty
	// table.
	table := allocBytes(func() {
		var tab flat.Table[[]llcLine]
		for _, a := range lines {
			tab.Upsert(geom.setIndex(a))
		}
	})
	var c *LLC
	got := allocBytes(func() {
		c = NewLLC(64<<20, 16, 64)
		for _, a := range lines {
			c.Fill(a)
		}
	})
	bound := table + 2*n*uint64(unsafe.Sizeof(llcLine{}))
	if got > bound {
		t.Fatalf("filling %d lines into distinct sets allocated %d B, want <= %d B (table %d B)", n, got, bound, table)
	}
	for _, a := range lines {
		if !c.Access(a) {
			t.Fatalf("line %v missing after fill", a)
		}
	}
}

// BenchmarkLLCFill fills a fresh default-geometry LLC with a fixed
// scattered set of 4096 lines, then re-accesses every one: the cost of a
// sparse working set. ns/op and B/op cover the whole set, not one line.
func BenchmarkLLCFill(b *testing.B) {
	const n = 4096
	var lines []isa.Addr
	for i := 0; i < n; i++ {
		lines = append(lines, line(i*977))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewLLC(64<<20, 16, 64)
		for _, a := range lines {
			c.Fill(a)
		}
		for _, a := range lines {
			if !c.Access(a) {
				b.Fatalf("line %v missing", a)
			}
		}
	}
}
