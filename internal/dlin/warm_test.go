package dlin

import (
	"math/rand"
	"reflect"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/model"
	"lrp/internal/recovery"
)

// randomRun records a random history over 2–4 threads on a tracker with
// random happens-before edges and durable instants. Threads write node
// stores, acquire and release over a few shared lines; most updates
// linearize on a release, a few on a plain write, some not at all. Every
// write persists at a random instant in [0, 40] (ties are common), a few
// never do, and some start a torn persist that carries their word
// earlier.
func randomRun(r *rand.Rand, queue bool) (*History, *model.Tracker) {
	threads := 2 + r.Intn(3)
	tr := model.NewTracker(threads)
	h := &History{Structure: "hashmap"}
	if queue {
		h.Structure = "queue"
	}
	line := func() isa.Addr { return isa.Addr(0x1000 + 0x40*r.Intn(6) + 8*r.Intn(2)) }
	var writes []model.Stamp
	var ops []Op
	linSeq := uint64(0)
	for range 20 + r.Intn(40) {
		tid := r.Intn(threads)
		switch r.Intn(6) {
		case 0:
			writes = append(writes, tr.OnWrite(tid, line()))
		case 1:
			tr.OnAcquire(tid, line())
		default:
			var lin model.Stamp
			switch n := r.Intn(10); {
			case n == 0:
				lin = tr.OnWrite(tid, line())
			default:
				lin = tr.OnRelease(tid, line())
			}
			writes = append(writes, lin)
			linSeq++
			o := Op{Tid: tid, OK: r.Intn(8) != 0, Lin: lin, LinSeq: linSeq}
			if r.Intn(12) == 0 {
				o.Lin = model.Stamp{}
			}
			if queue {
				if r.Intn(2) == 0 {
					o.Kind, o.Val, o.OK = OpEnqueue, uint64(1+r.Intn(4)), true
				} else {
					o.Kind, o.Ret = OpDequeue, uint64(1+r.Intn(4))
				}
			} else {
				o.Kind = []Kind{OpInsert, OpDelete, OpSet, OpCAS, OpContains}[r.Intn(5)]
				o.Key, o.Val, o.Exp = uint64(1+r.Intn(6)), uint64(1+r.Intn(3)), uint64(r.Intn(4))
			}
			ops = append(ops, o)
		}
	}
	for _, s := range writes {
		switch n := r.Intn(10); {
		case n == 0:
			// never durable
		case n <= 2:
			start := engine.Time(r.Intn(30))
			tr.SetTorn(s, start, uint64(r.Intn(256)))
			tr.SetPersisted(s, start+engine.Time(r.Intn(10)))
		default:
			tr.SetPersisted(s, engine.Time(r.Intn(41)))
		}
	}
	// Ops complete in an order near, not equal to, linearization order.
	for i := range ops {
		if j := i + r.Intn(3); j < len(ops) {
			ops[i], ops[j] = ops[j], ops[i]
		}
	}
	h.Ops = ops
	return h, tr
}

// setWalker recovers a keyed set from units of three words each: a
// nonzero word key<<8|val in unit u is member key with value val. The
// edits keep key%units == u, so units recover disjoint keys.
type setWalker struct{ units int }

func (w setWalker) Name() string { return "words" }
func (w setWalker) Units() int   { return w.units }

func (w setWalker) WalkUnit(img *mm.Memory, rep *recovery.Report, u int) {
	for k := range 3 {
		if v := img.Read(unitWord(u, k)); v != 0 {
			rep.Set.Nodes++
			rep.Recovered(v>>8, v&0xff)
		}
	}
}

func unitWord(u, k int) isa.Addr { return isa.Addr(0x10000 + 0x40*u + 8*k) }

// queueWalker recovers a queue from eight words: the nonzero ones, in
// order.
type queueWalker struct{}

func (queueWalker) Name() string { return "queue" }
func (queueWalker) Units() int   { return 1 }

func (queueWalker) WalkUnit(img *mm.Memory, rep *recovery.Report, _ int) {
	q := &recovery.QueueState{}
	for k := range 8 {
		if v := img.Read(isa.Addr(0x10000 + 8*k)); v != 0 {
			q.Values = append(q.Values, v)
		}
	}
	rep.Queue = q
}

// edit writes one random word of img: a member (or a hole) for a set,
// a value (or a hole) for a queue. Keys run past the history's, so some
// recovered keys no update explains.
func edit(r *rand.Rand, img *mm.Memory, w recovery.Walker) {
	if _, ok := w.(queueWalker); ok {
		img.Write(isa.Addr(0x10000+8*r.Intn(8)), uint64(r.Intn(5)))
		return
	}
	u := r.Intn(w.Units())
	var v uint64
	if r.Intn(4) != 0 {
		key := uint64(u + w.Units()*r.Intn(3))
		v = key<<8 | uint64(1+r.Intn(3))
	}
	img.Write(unitWord(u, r.Intn(3)), v)
}

// TestWarmPassMatchesCold drives one Pass through a random sequence of
// checks and requires each verdict to equal a fresh Pass's and the
// reference check's (refCheck). The recovered state changes by random
// edits to the crash image between checks, and the Pass learns of them
// through the walk's change feed. Instants mostly ascend, with ties, and
// sometimes jump back; some checks get a clone of the report, or the
// report of a second image, which the Pass cannot relate to the last.
func TestWarmPassMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	checks, violating := 0, 0
	for run := range 400 {
		queue := run%4 == 3
		h, tr := randomRun(r, queue)
		ck, err := NewChecker(h, tr)
		if err != nil {
			t.Fatal(err)
		}
		var w recovery.Walker = setWalker{units: 2 + r.Intn(3)}
		if queue {
			w = queueWalker{}
		}
		// The image starts empty, so the first checks tend to be clean.
		img, other := mm.NewMemory(), mm.NewMemory()
		edit(r, other, w)
		p := ck.NewPass()
		at := engine.Time(0)
		for step := range 60 {
			if r.Intn(3) == 0 {
				edit(r, img, w)
			}
			rep := recovery.Walk(img, w)
			switch n := r.Intn(20); {
			case n == 0:
				rep = rep.Clone()
			case n == 1:
				edit(r, other, w)
				rep = recovery.Walk(other, w)
			}
			if r.Intn(12) == 0 {
				at = engine.Time(r.Intn(int(at) + 1))
			} else {
				at += engine.Time(r.Intn(3))
			}
			got, cold, want := p.Check(at, rep), ck.NewPass().Check(at, rep), refCheck(ck, at, rep)
			if !reflect.DeepEqual(cold, want) {
				t.Fatalf("run %d step %d t=%d: cold pass %v, reference %v", run, step, at, cold, want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d step %d t=%d: warm pass %v, reference %v", run, step, at, got, want)
			}
			checks++
			if len(want) > 0 {
				violating++
			}
		}
	}
	if violating == 0 || violating == checks {
		t.Fatalf("%d of %d checks violating: the comparison needs both verdicts", violating, checks)
	}
	t.Logf("%d checks, %d violating", checks, violating)
}

// TestClosureMatchesPairwise requires NewChecker's per-thread closure to
// give every update the need and needOf the pairwise reference does (and
// the same pAt, needW and needWOf) on random trackers.
func TestClosureMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for run := range 2000 {
		h, tr := randomRun(r, run%4 == 3)
		ck, err := NewChecker(h, tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff := ScheduleDiff(ck); diff != "" {
			t.Fatalf("run %d: %s", run, diff)
		}
	}
}
