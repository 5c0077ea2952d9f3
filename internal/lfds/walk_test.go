package lfds

import (
	"fmt"
	"reflect"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/memsys"
)

// The loop forms of the traversal walkers, kept verbatim as the reference
// the walkers are held to (TestWalkersMatchReferenceLoops).

func (l *sortedList) refSearch(c *memsys.Ctx, key uint64) (predCell isa.Addr, curr uint64) {
retry:
	for {
		predCell = l.head
		curr = c.LoadAcq(predCell)
		for curr != 0 {
			next := c.LoadAcq(addr(curr) + nodeNext)
			if isMarked(next) {
				// curr is logically deleted: help unlink it.
				if _, ok := c.CAS(predCell, curr, clearPtr(next), isa.Release); !ok {
					continue retry
				}
				curr = clearPtr(next)
				continue
			}
			k := c.Load(addr(curr) + nodeKey)
			if k >= key {
				return predCell, curr
			}
			predCell = addr(curr) + nodeNext
			curr = next
		}
		return predCell, 0
	}
}

func (b *BST) refSeek(c *memsys.Ctx, key uint64) seekRec {
	rec := seekRec{pCell: b.root}
	curr := clearPtr(c.LoadAcq(b.root))
	for {
		left := c.LoadAcq(addr(curr) + bstLeft)
		if clearPtr(left) == 0 {
			rec.leaf = curr
			return rec
		}
		right := c.LoadAcq(addr(curr) + bstRight)
		rec.gpCell = rec.pCell
		rec.parent = curr
		if key < c.Load(addr(curr)+bstKey) {
			rec.pCell = addr(curr) + bstLeft
			rec.sibCell = addr(curr) + bstRight
			curr = clearPtr(left)
		} else {
			rec.pCell = addr(curr) + bstRight
			rec.sibCell = addr(curr) + bstLeft
			curr = clearPtr(right)
		}
	}
}

func (s *SkipList) refFind(c *memsys.Ctx, key uint64) (preds [MaxHeight]isa.Addr, succs [MaxHeight]uint64, found bool) {
retry:
	for {
		predCell := s.headCell(MaxHeight - 1)
		for level := MaxHeight - 1; level >= 0; level-- {
			if level != MaxHeight-1 {
				predCell -= 8 // drop one level within the same tower
			}
			curr := clearPtr(loadLevel(c, predCell, level))
			for curr != 0 {
				next := loadLevel(c, addr(curr)+slNext(level), level)
				for isMarked(next) {
					// Help unlink the deleted node at this level.
					if _, ok := c.CAS(predCell, curr, clearPtr(next), casOrder(level)); !ok {
						continue retry
					}
					curr = clearPtr(next)
					if curr == 0 {
						break
					}
					next = loadLevel(c, addr(curr)+slNext(level), level)
				}
				if curr == 0 {
					break
				}
				if c.Load(addr(curr)+slKey) >= key {
					break
				}
				predCell = addr(curr) + slNext(level)
				curr = clearPtr(next)
			}
			preds[level] = predCell
			succs[level] = curr
		}
		bottom := succs[0]
		found = bottom != 0 && c.Load(addr(bottom)+slKey) == key
		return preds, succs, found
	}
}

func (s *SkipList) refContains(c *memsys.Ctx, key uint64) bool {
	predCell := s.headCell(MaxHeight - 1)
	var curr uint64
	for level := MaxHeight - 1; level >= 0; level-- {
		if level != MaxHeight-1 {
			predCell -= 8
		}
		curr = clearPtr(loadLevel(c, predCell, level))
		for curr != 0 {
			k := c.Load(addr(curr) + slKey)
			next := loadLevel(c, addr(curr)+slNext(level), level)
			if k < key {
				predCell = addr(curr) + slNext(level)
				curr = clearPtr(next)
				continue
			}
			if level == 0 && k == key {
				return !isMarked(next)
			}
			break
		}
	}
	return false
}

// refWalk stands in for traverse on the reference machine: it runs the
// loop form of w's traversal and leaves the loop's result where the
// walker leaves its own.
func refWalk(c *memsys.Ctx, w memsys.Walker) {
	switch w := w.(type) {
	case *searchWalk:
		w.predCell, w.curr = (&sortedList{head: w.head}).refSearch(c, w.key)
	case *seekWalk:
		w.rec = (&BST{root: w.rec.pCell}).refSeek(c, w.key)
	case *findWalk:
		w.preds, w.succs, w.found = (&SkipList{head: w.head}).refFind(c, w.key)
	case *containsWalk:
		w.found = (&SkipList{head: w.head}).refContains(c, w.key)
	default:
		panic(fmt.Sprintf("no reference loop for %T", w))
	}
}

// walkCounts counts what a run's traversal walkers did: the unlink CASes
// they issued and how many of those failed, each one a retry.
type walkCounts struct{ unlinks, retries int }

// countingWalker passes a walker's ops through unchanged, counting its
// CASes and their failures.
type countingWalker struct {
	w   memsys.Walker
	n   *walkCounts
	cas bool // the op last returned is a CAS
}

func (cw *countingWalker) Next(v uint64, ok bool) (isa.Op, bool) {
	if cw.cas && !ok {
		cw.n.retries++
	}
	op, more := cw.w.Next(v, ok)
	cw.cas = more && op.Kind == isa.CAS
	if cw.cas {
		cw.n.unlinks++
	}
	return op, more
}

// opLog captures a machine's memory-op stream.
type opLog struct{ recs []opRec }

type opRec struct {
	tid  int
	work engine.Time
	op   isa.Op
	val  uint64
	ok   bool
}

func (r *opLog) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	r.recs = append(r.recs, opRec{tid, work, op, val, ok})
}
func (r *opLog) RecordTick(int, engine.Time) {}
func (r *opLog) RecordSync()                 {}
func (r *opLog) RecordDrain()                {}
func (r *opLog) RecordMark(uint8)            {}

// walkRun is one machine's run of a TestWalkersMatchReferenceLoops
// config: its op stream, every operation's result in each thread's
// order, and each thread's final clock.
type walkRun struct {
	log     *opLog
	results [][]bool
	clocks  []engine.Time
	deletes int // successful deletes
}

// runWalkConfig builds set name on a fresh machine and runs threads
// programs of ops random inserts, deletes and contains over keys 1..keys
// after a single-threaded fill of half the keys, with traversals run by
// tr.
func runWalkConfig(t *testing.T, name string, seed uint64, threads, ops, keys int, k mech.Kind, tr func(*memsys.Ctx, memsys.Walker)) walkRun {
	t.Helper()
	saved := traverse
	traverse = tr
	defer func() { traverse = saved }()
	log := &opLog{}
	cfg := memsys.TestConfig(threads).WithMechanism(k)
	cfg.TrackHB = false
	cfg.Rec = log
	sys := memsys.MustNew(cfg)
	s := build(sys, name)
	sys.RunOne(func(c *memsys.Ctx) {
		r := engine.NewRand(seed)
		for i := 0; i < keys/2; i++ {
			key := uint64(r.Intn(keys)) + 1
			s.Insert(c, key, key*2+1)
		}
	})
	run := walkRun{log: log, results: make([][]bool, threads), clocks: make([]engine.Time, threads)}
	dels := make([]int, threads)
	progs := make([]memsys.Program, threads)
	for i := range progs {
		i := i
		progs[i] = func(c *memsys.Ctx) {
			r := engine.NewRand(seed*977 + uint64(i) + 1)
			for n := 0; n < ops; n++ {
				c.Work(engine.Time(r.Intn(8)))
				key := uint64(r.Intn(keys)) + 1
				var ok bool
				switch p := r.Intn(10); {
				case p < 4:
					ok = s.Insert(c, key, key*2+1)
				case p < 8:
					ok = s.Delete(c, key)
					if ok {
						dels[i]++
					}
				default:
					ok = s.Contains(c, key)
				}
				run.results[i] = append(run.results[i], ok)
			}
			run.clocks[i] = c.Now()
		}
	}
	sys.Run(progs)
	for _, d := range dels {
		run.deletes += d
	}
	return run
}

// TestWalkersMatchReferenceLoops holds each traversal walker to the loop
// it replaced: seeded runs of 2–8 threads of random inserts, deletes and
// contains on two identical machines, one running the walkers through
// the kernel and one running the reference loops through Ctx calls, must
// return the same results and leave the same op stream and the same
// final clocks. The key range is small, so traversals meet marked nodes
// and contend on their unlinks: in each list-shaped structure the test
// requires walker-issued unlink CASes and failed ones (retries). The BST's
// seek never writes; its helping lives in Delete, so for the tree the
// test requires completed deletions (each unlinks a leaf and its parent
// with one CAS) and failed CASes, each of which sends the operation back
// to a fresh seek.
func TestWalkersMatchReferenceLoops(t *testing.T) {
	const seeds = 12
	for _, name := range setNames {
		name := name
		t.Run(name, func(t *testing.T) {
			var n walkCounts
			failedCAS := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				r := engine.NewRand(seed*31 + uint64(len(name)))
				threads := 2 + r.Intn(7)
				keys := 8 + r.Intn(24)
				k := mech.LRP
				if seed%2 == 0 {
					k = mech.NOP
				}
				got := runWalkConfig(t, name, seed, threads, 40, keys, k, func(c *memsys.Ctx, w memsys.Walker) {
					c.Walk(&countingWalker{w: w, n: &n})
				})
				want := runWalkConfig(t, name, seed, threads, 40, keys, k, refWalk)
				cfgName := fmt.Sprintf("seed %d, %d threads, %d keys, %v", seed, threads, keys, k)
				if !reflect.DeepEqual(got.results, want.results) {
					t.Fatalf("%s: results differ from the reference loops'", cfgName)
				}
				if !reflect.DeepEqual(got.log.recs, want.log.recs) {
					i := 0
					for i < len(got.log.recs) && i < len(want.log.recs) && got.log.recs[i] == want.log.recs[i] {
						i++
					}
					t.Fatalf("%s: op streams diverge at op %d of %d/%d", cfgName, i, len(got.log.recs), len(want.log.recs))
				}
				if !reflect.DeepEqual(got.clocks, want.clocks) {
					t.Fatalf("%s: final clocks %v, reference %v", cfgName, got.clocks, want.clocks)
				}
				for _, rec := range got.log.recs {
					if rec.op.Kind == isa.CAS && !rec.ok {
						failedCAS++
					}
				}
				if name == "bstree" {
					n.unlinks += got.deletes
				}
			}
			if name == "bstree" {
				n.retries = failedCAS
			}
			t.Logf("%d unlinks, %d retries", n.unlinks, n.retries)
			if n.unlinks == 0 || n.retries == 0 {
				t.Fatalf("%d unlinks and %d retries: the helping paths were not exercised", n.unlinks, n.retries)
			}
		})
	}
}
