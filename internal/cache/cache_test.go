package cache

import (
	"testing"
	"testing/quick"

	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/persist"
)

func line(n int) isa.Addr { return isa.Addr(n * isa.LineSize) }

// valid returns c's valid lines in slot order (set-major).
func valid(c *L1) []*Line {
	var out []*Line
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			out = append(out, &c.lines[i])
		}
	}
	return out
}

func TestL1Geometry(t *testing.T) {
	c := NewL1(32<<10, 8) // Table 1: 32KB, 8-way
	if sets := len(c.lines) / c.ways; sets != 64 || c.ways != 8 {
		t.Fatalf("geometry: %d sets x %d ways", sets, c.ways)
	}
}

func TestL1BadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewL1(0, 8) },
		func() { NewL1(32<<10, 0) },
		func() { NewL1(24<<10, 8) }, // 48 sets, not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestL1FillLookupAccess(t *testing.T) {
	c := NewL1(1024, 2) // 8 sets x 2 ways
	a := line(1)
	if c.Access(a) != nil {
		t.Fatal("hit on empty cache")
	}
	slot := c.Victim(a)
	c.Fill(slot, a, Exclusive)
	got := c.Access(a)
	if got == nil || got.State != Exclusive || got.Addr != a {
		t.Fatalf("bad line after fill: %+v", got)
	}
}

func TestL1LRUEviction(t *testing.T) {
	c := NewL1(2*isa.LineSize, 2) // 1 set x 2 ways
	a, b, d := line(0), line(1), line(2)
	c.Fill(c.Victim(a), a, Modified)
	c.Fill(c.Victim(b), b, Shared)
	c.Access(a) // make a most-recently-used
	v := c.Victim(d)
	if v.Addr != b {
		t.Fatalf("victim = %v, want %v", v.Addr, b)
	}
	c.Fill(v, d, Exclusive)
	if c.Lookup(b) != nil {
		t.Fatal("b should be gone")
	}
}

func TestL1VictimPrefersInvalid(t *testing.T) {
	c := NewL1(2*isa.LineSize, 2)
	a := line(0)
	c.Fill(c.Victim(a), a, Modified)
	v := c.Victim(line(1))
	if v.State != Invalid {
		t.Fatal("victim should be the invalid way")
	}
}

func TestL1Invalidate(t *testing.T) {
	c := NewL1(1024, 2)
	a := line(3)
	slot := c.Victim(a)
	c.Fill(slot, a, Modified)
	arena := persist.NewStampArena()
	l := c.Lookup(a)
	l.AppendStamp(arena, model.Stamp{Tid: 1, Seq: 7})
	old, ok := c.Invalidate(a)
	if !ok || old.State != Modified || old.StampLen() != 1 {
		t.Fatalf("invalidate returned %+v, %v", old, ok)
	}
	if c.Lookup(a) != nil {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(a); ok {
		t.Fatal("double invalidate reported present")
	}
}

func TestL1ScanAndCountDirty(t *testing.T) {
	c := NewL1(1024, 2)
	arena := persist.NewStampArena()
	for i := 0; i < 5; i++ {
		a := line(i)
		slot := c.Victim(a)
		c.Fill(slot, a, Modified)
		if i%2 == 0 {
			l := c.Lookup(a)
			c.MarkPending(l)
			l.AppendStamp(arena, model.Stamp{Tid: 0, Seq: uint64(i + 1)})
		}
	}
	if got := countPending(c); got != 3 {
		t.Fatalf("%d lines pending, want 3", got)
	}
	if n := len(valid(c)); n != 5 {
		t.Fatalf("%d valid lines, want 5", n)
	}
}

func TestLineClassification(t *testing.T) {
	var l Line
	onlyWritten := func() bool { return l.NeedsPersist() && !l.Release }
	if l.NeedsPersist() || onlyWritten() || l.Released() {
		t.Fatal("clean line misclassified")
	}
	arena := persist.NewStampArena()
	l.Pending = true
	l.AppendStamp(arena, model.Stamp{Tid: 0, Seq: 1})
	if !onlyWritten() || l.Released() {
		t.Fatal("only-written line misclassified")
	}
	l.Release = true
	if onlyWritten() || !l.Released() {
		t.Fatal("released line misclassified")
	}
	st := l.TakeStamps()
	if st.Len() != 1 || l.StampLen() != 0 {
		t.Fatal("TakeStamps broken")
	}
	arena.Free(&st)
	l.ClearPersistMeta(arena)
	if l.NeedsPersist() || l.Release || l.MinEpoch != 0 || l.Pending {
		t.Fatal("ClearPersistMeta incomplete")
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{Invalid, Shared, Exclusive, Modified, State(9)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

// Property: after any access sequence, each set holds at most Ways lines
// and all present lines were the most recent distinct fills to that set.
func TestL1InvariantProperty(t *testing.T) {
	f := func(refs []uint8) bool {
		c := NewL1(512, 2) // 4 sets x 2 ways
		installed := map[isa.Addr]bool{}
		for _, r := range refs {
			a := line(int(r % 32))
			if c.Access(a) == nil {
				v := c.Victim(a)
				if v.State != Invalid {
					delete(installed, v.Addr)
				}
				c.Fill(v, a, Exclusive)
			}
			installed[a] = true
		}
		// Every line we believe installed must be present and vice versa.
		lines := valid(c)
		for _, l := range lines {
			if !installed[l.Addr] {
				return false
			}
		}
		return len(lines) == len(installed) && len(lines) <= len(c.lines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLLCBasics(t *testing.T) {
	c := NewLLC(64<<20, 16, 64) // Table 1: 1MB x 64 tiles, 16-way
	if c.banks != 64 {
		t.Fatal("banks")
	}
	a := line(5)
	if c.Access(a) {
		t.Fatal("hit on empty LLC")
	}
	c.Fill(a)
	if !c.Access(a) {
		t.Fatal("miss after fill")
	}
}

func TestLLCBankStable(t *testing.T) {
	c := NewLLC(1<<20, 16, 8)
	a := line(13)
	if c.Bank(a) != c.Bank(a) || c.Bank(a) >= 8 {
		t.Fatal("bank selection broken")
	}
}

func TestLLCEviction(t *testing.T) {
	c := NewLLC(2*isa.LineSize, 2, 1) // 1 set x 2 ways
	a, b, d := line(0), line(1), line(2)
	c.Fill(a)
	c.Fill(b)
	c.MarkDirty(a)
	c.Access(a) // b becomes LRU
	ev, dirty, had := c.Fill(d)
	if !had || ev != b || dirty {
		t.Fatalf("eviction: %v dirty=%v had=%v", ev, dirty, had)
	}
	// Now evict dirty a.
	c.Access(d)
	ev, dirty, had = c.Fill(line(3))
	if !had || ev != a || !dirty {
		t.Fatalf("dirty eviction: %v dirty=%v had=%v", ev, dirty, had)
	}
}

func TestLLCRefillKeepsLine(t *testing.T) {
	c := NewLLC(2*isa.LineSize, 2, 1)
	a := line(0)
	c.Fill(a)
	_, _, had := c.Fill(a)
	if had {
		t.Fatal("refill must not evict")
	}
}

func TestLLCDirtyBits(t *testing.T) {
	c := NewLLC(1<<20, 16, 4)
	a := line(9)
	c.Fill(a)
	c.MarkDirty(a)
	if got := c.DirtyLines(); len(got) != 1 || got[0] != a {
		t.Fatalf("dirty lines after MarkDirty = %v", got)
	}
	c.MarkClean(a)
	if got := c.DirtyLines(); len(got) != 0 {
		t.Fatalf("MarkClean did not clear: %v", got)
	}
	// Ops on absent lines are no-ops.
	c.MarkDirty(line(99))
	c.MarkClean(line(99))
	if got := c.DirtyLines(); len(got) != 0 {
		t.Fatalf("MarkDirty of an absent line: %v", got)
	}
}

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory(4)
	a := line(7)
	if d.entries.Ptr(uint64(a)) != nil {
		t.Fatal("a fresh directory holds an entry")
	}
	e := d.Entry(a)
	if e.Owner != NoOwner || e.HasSharers() {
		t.Fatal("fresh entry not empty")
	}
	d.SetOwner(a, 2)
	if d.Entry(a).Owner != 2 {
		t.Fatal("SetOwner failed")
	}
	d.ClearOwner(a, true)
	e = d.Entry(a)
	if e.Owner != NoOwner || e.Sharers != 1<<2 {
		t.Fatalf("downgrade: %+v", e)
	}
	d.AddSharer(a, 0)
	d.AddSharer(a, 3)
	if got := d.Entry(a).Sharers; got != 1<<0|1<<2|1<<3 {
		t.Fatalf("sharers: %b", got)
	}
	d.RemoveSharer(a, 2)
	if d.Entry(a).Sharers != (1<<0 | 1<<3) {
		t.Fatal("RemoveSharer failed")
	}
	d.DropCore(a, 0)
	d.DropCore(a, 3)
	if d.Entry(a).HasSharers() {
		t.Fatal("DropCore failed")
	}
}

func TestDirectoryOwnerReplacesSharers(t *testing.T) {
	d := NewDirectory(4)
	a := line(1)
	d.AddSharer(a, 0)
	d.AddSharer(a, 1)
	d.SetOwner(a, 2)
	e := d.Entry(a)
	if e.Owner != 2 || e.HasSharers() {
		t.Fatalf("after SetOwner: %+v", e)
	}
}

func TestDirectoryDropOwner(t *testing.T) {
	d := NewDirectory(4)
	a := line(1)
	d.SetOwner(a, 1)
	d.DropCore(a, 1)
	if d.Entry(a).Owner != NoOwner {
		t.Fatal("DropCore did not clear owner")
	}
	// ClearOwner without keeping as sharer.
	d.SetOwner(a, 1)
	d.ClearOwner(a, false)
	e := d.Entry(a)
	if e.Owner != NoOwner || e.HasSharers() {
		t.Fatalf("ClearOwner(false): %+v", e)
	}
}

func TestDirectoryBounds(t *testing.T) {
	for _, f := range []func(){
		func() { NewDirectory(0) },
		func() { NewDirectory(65) },
		func() { NewDirectory(4).SetOwner(line(0), 4) },
		func() { NewDirectory(4).AddSharer(line(0), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
	// No-ops on missing entries are safe.
	d := NewDirectory(4)
	d.RemoveSharer(line(0), 1)
	d.DropCore(line(0), 1)
}

// ScanPending must visit exactly the pending lines, in the same slot
// order Scan would, and lazily retire bits for lines that stopped
// pending without going through the bitmap.
func TestL1ScanPendingOrder(t *testing.T) {
	c := NewL1(1024, 2)
	arena := persist.NewStampArena()
	for i := 0; i < 10; i++ {
		a := line(i)
		c.Fill(c.Victim(a), a, Modified)
		if i%3 != 0 {
			c.MarkPending(c.Lookup(a))
		}
	}
	var wantAddrs []isa.Addr
	for _, l := range valid(c) {
		if l.NeedsPersist() {
			wantAddrs = append(wantAddrs, l.Addr)
		}
	}
	var got []isa.Addr
	c.ScanPending(func(l *Line) { got = append(got, l.Addr) })
	if len(got) != len(wantAddrs) {
		t.Fatalf("ScanPending visited %v, want %v", got, wantAddrs)
	}
	for i := range wantAddrs {
		if got[i] != wantAddrs[i] {
			t.Fatalf("ScanPending order %v, want %v", got, wantAddrs)
		}
	}

	// Clear one line's metadata directly (the persist path) and
	// invalidate another: their stale bits must be skipped and retired.
	first := c.Lookup(got[0])
	first.ClearPersistMeta(arena)
	c.Invalidate(got[1])
	var after []isa.Addr
	c.ScanPending(func(l *Line) { after = append(after, l.Addr) })
	if len(after) != len(got)-2 {
		t.Fatalf("after clear+invalidate: %v", after)
	}
	// Re-marking a line must work after its bit was lazily retired.
	c.MarkPending(first)
	if got := countPending(c); got != len(after)+1 {
		t.Fatalf("%d lines pending after re-mark, want %d", got, len(after)+1)
	}
}

// A line persisted from inside ScanPending's own callback (the engine
// does exactly this) must not leave a stale bit behind.
func TestL1ScanPendingClearsInsideCallback(t *testing.T) {
	c := NewL1(1024, 2)
	arena := persist.NewStampArena()
	a := line(4)
	c.Fill(c.Victim(a), a, Modified)
	c.MarkPending(c.Lookup(a))
	c.ScanPending(func(l *Line) { l.ClearPersistMeta(arena) })
	n := 0
	c.ScanPending(func(*Line) { n++ })
	if n != 0 {
		t.Fatalf("stale pending bit survived in-callback clear")
	}
}

func TestDirectoryForEachSharer(t *testing.T) {
	d := NewDirectory(64)
	a := line(2)
	for _, core := range []int{0, 5, 63} {
		d.AddSharer(a, core)
	}
	var got []int
	d.Entry(a).ForEachSharer(func(core int) { got = append(got, core) })
	want := []int{0, 5, 63}
	if len(got) != len(want) {
		t.Fatalf("ForEachSharer = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachSharer = %v, want %v", got, want)
		}
	}
	// The hot-path walk must not allocate.
	e := d.Entry(a)
	if n := testing.AllocsPerRun(10, func() {
		e.ForEachSharer(func(int) {})
	}); n != 0 {
		t.Fatalf("ForEachSharer allocated %.0f times", n)
	}
}

// DirtyLines feeds drain persists (and through them crash images), so
// its order must be canonical regardless of set materialization order.
func TestLLCDirtyLinesSorted(t *testing.T) {
	c := NewLLC(1<<20, 16, 4)
	for _, i := range []int{900, 3, 512, 77, 10_000} {
		a := line(i)
		c.Fill(a)
		c.MarkDirty(a)
	}
	got := c.DirtyLines()
	if len(got) != 5 {
		t.Fatalf("DirtyLines = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("DirtyLines not sorted: %v", got)
		}
	}
}

// countPending counts the lines ScanPending visits: those holding
// unpersisted writes.
func countPending(c *L1) int {
	n := 0
	c.ScanPending(func(*Line) { n++ })
	return n
}
