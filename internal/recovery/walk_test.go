package recovery_test

import (
	"reflect"
	"slices"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// wordWalker is a Walker whose unit u reads the words at reads[u]: a
// nonzero multiple of 0x1000 links to the word at that address, which
// the unit reads next; any other odd word w is the member w, and any
// other even nonzero word is quarantined. walks counts each unit's
// walks.
type wordWalker struct {
	reads [][]isa.Addr
	walks []int
}

func newWordWalker(reads ...[]isa.Addr) *wordWalker {
	return &wordWalker{reads: reads, walks: make([]int, len(reads))}
}

func (w *wordWalker) Name() string { return "words" }
func (w *wordWalker) Units() int   { return len(w.reads) }

func (w *wordWalker) WalkUnit(img *mm.Memory, rep *recovery.Report, u int) {
	w.walks[u]++
	for _, a := range w.reads[u] {
		v := img.Read(a)
		if v != 0 && v%0x1000 == 0 {
			a, v = isa.Addr(v), img.Read(isa.Addr(v))
		}
		switch {
		case v == 0:
		case v%2 == 0:
			rep.Quarantine(a, "even word")
		default:
			rep.Set.Nodes++
			rep.Recovered(v, uint64(u))
		}
	}
}

// walkStep walks img and checks the report against a full walk of a clone
// and the unit walk counts against want.
func walkStep(t *testing.T, w *wordWalker, img *mm.Memory, want ...int) *recovery.Report {
	t.Helper()
	rep := recovery.Walk(img, w)
	walks := slices.Clone(w.walks)
	full := recovery.Walk(img.Clone(), newWordWalker(w.reads...))
	if !reflect.DeepEqual(rep, full) {
		t.Fatalf("walk %+v %+v, full walk of a clone %+v %+v", rep, rep.Set, full, full.Set)
	}
	if !slices.Equal(walks, want) {
		t.Fatalf("unit walks %v, want %v", walks, want)
	}
	return rep
}

// TestWalkRewalksOnlyStaleUnits: a write re-walks exactly the units whose
// last walk read its line, a line two units read re-walks both, and a
// unit reused without being re-read still gates the next walk.
func TestWalkRewalksOnlyStaleUnits(t *testing.T) {
	img := mm.NewMemory()
	img.Write(0x1000, 1)
	img.Write(0x1008, 3)
	img.Write(0x2000, 4)
	img.Write(0x3000, 5)
	w := newWordWalker(
		[]isa.Addr{0x1000},         // shares line 0x1000 with unit 1
		[]isa.Addr{0x1008, 0x2000}, // quarantines 0x2000
		[]isa.Addr{0x3000},
	)
	first := walkStep(t, w, img, 1, 1, 1)
	if again := walkStep(t, w, img, 1, 1, 1); again != first {
		t.Fatal("a walk with nothing written returned a new report")
	}

	img.Write(0x3000, 7)
	second := walkStep(t, w, img, 1, 1, 2)
	if second == first {
		t.Fatal("a walk that re-walked a unit returned the previous report")
	}
	img.Write(0x1010, 0) // a word no unit reads, on the line units 0 and 1 read
	walkStep(t, w, img, 2, 2, 2)
	img.Write(0x3000, 9) // unit 2 was reused by the last walk, not re-read
	walkStep(t, w, img, 2, 2, 3)
	img.Write(0x2000, 11) // unit 1's quarantined word becomes a member
	rep := walkStep(t, w, img, 2, 3, 3)
	if !rep.Clean() || len(rep.Set.Members) != 4 {
		t.Fatalf("final walk %v, %d members", rep, len(rep.Set.Members))
	}
}

// TestWalkFollowsNewReads: a re-walk that reads a line the unit's
// earlier walks did not makes a write there re-walk the unit.
func TestWalkFollowsNewReads(t *testing.T) {
	img := mm.NewMemory()
	img.Write(0x9000, 1)
	w := newWordWalker([]isa.Addr{0x1000}, []isa.Addr{0x9000})
	walkStep(t, w, img, 1, 1)
	img.Write(0x1000, 0x7000) // a link to a word no walk has read
	walkStep(t, w, img, 2, 1)
	img.Write(0x7000, 13)
	walkStep(t, w, img, 3, 1)
}

// TestWalkAbsentPageLine: a unit that read a word of a missing page is
// re-walked by a write to that word's line, not by one that only creates
// the page.
func TestWalkAbsentPageLine(t *testing.T) {
	img := mm.NewMemory()
	w := newWordWalker([]isa.Addr{0x5008}, []isa.Addr{0x6000})
	walkStep(t, w, img, 1, 1)
	img.Write(0x5fc0, 2) // creates the page, on another line
	walkStep(t, w, img, 1, 1)
	img.Write(0x5000, 3)
	walkStep(t, w, img, 2, 1)
}

// TestWalkReportValidUntilNextWalk: a re-walk updates the shared Members
// map in place, so an earlier report is only safe to keep as a Clone.
func TestWalkReportValidUntilNextWalk(t *testing.T) {
	img := mm.NewMemory()
	img.Write(0x1000, 1)
	w := newWordWalker([]isa.Addr{0x1000})
	rep := recovery.Walk(img, w)
	kept := rep.Clone()
	img.Write(0x1000, 3)
	recovery.Walk(img, w)
	if want := map[uint64]uint64{1: 0}; !reflect.DeepEqual(kept.Set.Members, want) {
		t.Fatalf("clone holds %v, want %v", kept.Set.Members, want)
	}
	if _, ok := rep.Set.Members[3]; !ok {
		t.Fatal("the earlier report's Members is not the one the re-walk updated")
	}
}
