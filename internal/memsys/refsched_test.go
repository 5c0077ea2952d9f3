package memsys

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
)

// refStep is one straight-line program step: gap cycles of compute, then
// one memory operation, or, when walk is set, a walk of a scriptWalk over
// those ops.
type refStep struct {
	gap  engine.Time
	op   isa.Op
	walk []isa.Op
}

// scriptWalk is a Walker over a script of ops in which every op after the
// first takes its value from the previous op's outcome: a store writes,
// and a CAS expects, the script's value plus the previous value, plus one
// more after a failed CAS (mod 4). So the ops a walk issues depend on
// every value the kernel hands to Next.
// When served is set, each grant at which the dispatch loop serves the
// walk counts one there.
type scriptWalk struct {
	script []isa.Op
	i      int
	served *int
}

func (w *scriptWalk) Next(v uint64, ok bool) (isa.Op, bool) {
	if w.served != nil && calledByServe() {
		*w.served++
	}
	if w.i == len(w.script) {
		return isa.Op{}, false
	}
	op := w.script[w.i]
	if w.i > 0 {
		d := v
		if !ok {
			d++
		}
		switch op.Kind {
		case isa.Store:
			op.Value = (op.Value + d) & 3
		case isa.CAS:
			op.Expected = (op.Expected + d) & 3
		}
	}
	w.i++
	return op, true
}

// refRecord is one recorder callback: an op (tick false) or a trailing
// compute tick.
type refRecord struct {
	tick bool
	tid  int
	work engine.Time
	op   isa.Op
	val  uint64
	ok   bool
}

// refLog captures the machine's whole recorder stream.
type refLog struct{ recs []refRecord }

func (r *refLog) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	r.recs = append(r.recs, refRecord{tid: tid, work: work, op: op, val: val, ok: ok})
}
func (r *refLog) RecordTick(tid int, work engine.Time) {
	r.recs = append(r.recs, refRecord{tick: true, tid: tid, work: work})
}
func (r *refLog) RecordSync()         {}
func (r *refLog) RecordDrain()        {}
func (r *refLog) RecordMark(id uint8) {}

// calledByServe reports whether its caller's caller is sched.serve.
func calledByServe() bool {
	var pcs [1]uintptr
	runtime.Callers(3, pcs[:])
	f, _ := runtime.CallersFrames(pcs[:]).Next()
	return strings.HasSuffix(f.Function, ".(*sched).serve")
}

// refSchedule is the reference scheduler: it grants one operation at a
// time to the thread whose issue clock (its clock plus the step's gap)
// is smallest, ties to the smaller thread id, found by a plain scan over
// all threads, and performs it with Step. A walk step's ops are granted
// one at a time like any other, the gap before the first; each op's
// outcome is handed to the walker for the next. It returns how many
// grants were decided by a tie.
func refSchedule(s *System, lists [][]refStep) (ties int) {
	pc := make([]int, len(lists))
	walks := make([]*scriptWalk, len(lists)) // the walk each thread is in
	ops := make([]isa.Op, len(lists))        // its next op
	for {
		best, tied := -1, false
		var bestAt engine.Time
		for tid, l := range lists {
			if pc[tid] == len(l) {
				continue
			}
			at := s.clocks[tid]
			if walks[tid] == nil {
				at += l[pc[tid]].gap
			}
			switch {
			case best < 0 || at < bestAt:
				best, bestAt, tied = tid, at, false
			case at == bestAt:
				tied = true
			}
		}
		if best < 0 {
			break
		}
		if tied {
			ties++
		}
		st := lists[best][pc[best]]
		if st.walk == nil {
			s.Step(best, st.gap, st.op)
			pc[best]++
			continue
		}
		gap := engine.Time(0)
		if walks[best] == nil {
			walks[best] = &scriptWalk{script: st.walk}
			ops[best], _ = walks[best].Next(0, false)
			gap = st.gap
		}
		op, more := walks[best].Next(s.Step(best, gap, ops[best]))
		if more {
			ops[best] = op
		} else {
			walks[best] = nil
			pc[best]++
		}
	}
	s.FlushRecorder()
	return ties
}

// listPrograms turns step lists into Programs issuing the same operations
// through the Ctx API. served0 counts the turns of thread 0's walks that
// the dispatch loop serves.
func listPrograms(lists [][]refStep, served0 *int) []Program {
	progs := make([]Program, len(lists))
	for i, l := range lists {
		l := l
		var served *int
		if i == 0 {
			served = served0
		}
		progs[i] = func(c *Ctx) {
			for _, st := range l {
				c.Work(st.gap)
				if st.walk != nil {
					c.Walk(&scriptWalk{script: st.walk, served: served})
					continue
				}
				op := st.op
				switch {
				case op.Kind == isa.Load && op.Order == isa.Acquire:
					c.LoadAcq(op.Addr)
				case op.Kind == isa.Load:
					c.Load(op.Addr)
				case op.Kind == isa.Store && op.Order == isa.Release:
					c.StoreRel(op.Addr, op.Value)
				case op.Kind == isa.Store:
					c.Store(op.Addr, op.Value)
				default:
					c.CAS(op.Addr, op.Expected, op.Value, op.Order)
				}
			}
		}
	}
	return progs
}

// randomLists builds a random straight-line program per thread over the
// given shared words. Gaps are mostly zero or tiny, so threads that start
// together keep colliding on the same clock; a few long gaps let a thread
// fall behind and be overtaken. Values stay in 0..3 so CAS both succeeds
// and fails. About one step in five is a walk of 1–8 random ops (a third
// of them one-step walks), and a third of the threads end on a walk.
func randomLists(r *engine.Rand, threads int, words []isa.Addr) [][]refStep {
	lists := make([][]refStep, threads)
	for tid := range lists {
		l := make([]refStep, 1+r.Intn(40))
		for i := range l {
			var gap engine.Time
			switch g := r.Intn(10); {
			case g < 4:
				gap = 0
			case g < 7:
				gap = engine.Time(1 + r.Intn(3))
			default:
				gap = engine.Time(10 + r.Intn(300))
			}
			l[i] = refStep{gap: gap, op: randomOp(r, words)}
			if r.Intn(5) == 0 || (i == len(l)-1 && r.Intn(3) == 0) {
				n := 1
				if r.Intn(3) > 0 {
					n = 2 + r.Intn(7)
				}
				l[i].walk = make([]isa.Op, n)
				for j := range l[i].walk {
					l[i].walk[j] = randomOp(r, words)
				}
			}
		}
		lists[tid] = l
	}
	return lists
}

// randomOp draws a load, store or CAS of one of words, of any ordering
// its kind admits.
func randomOp(r *engine.Rand, words []isa.Addr) isa.Op {
	a := words[r.Intn(len(words))]
	v := uint64(r.Intn(4))
	switch r.Intn(5) {
	case 0:
		return isa.LoadOp(a)
	case 1:
		return isa.LoadAcq(a)
	case 2:
		return isa.StoreOp(a, v)
	case 3:
		return isa.StoreRel(a, v)
	default:
		return isa.CASOp(a, uint64(r.Intn(4)), v, isa.Ordering(r.Intn(4)))
	}
}

// TestKernelMatchesReferenceScheduler holds the scheduling kernel to the
// reference min-scan scheduler: random straight-line programs over at
// most 4 shared lines, run as Programs through Run on one machine and
// through refSchedule on an identical one, must produce the same recorder
// stream (thread, op, value, success), the same final clocks and the same
// Stats, under every mechanism. Each config runs two rounds separated by
// SyncClocks, so the second round starts with every clock tied. Most
// configs run 2–8 programs on as many cores; the rest run fewer programs
// than cores, in counts that are not powers of two (the kernel's
// tournament pads them to one); 33 programs make a 64-leaf tree that is
// padding in its upper half. The programs' walks hold the kernel's walk
// path to the same order: the test requires that some walk's turns were
// served by the dispatch loop, on thread 0 among others.
func TestKernelMatchesReferenceScheduler(t *testing.T) {
	const configs = 30
	sparse := []struct{ cores, threads int }{{4, 3}, {8, 5}, {8, 7}, {16, 6}, {16, 11}, {64, 13}, {64, 33}}
	var total refTotals
	for _, k := range mech.Kinds() {
		for seed := 0; seed < configs; seed++ {
			r := engine.NewRand(uint64(seed)*131 + uint64(k) + 1)
			threads := 2 + r.Intn(7)
			total.add(checkKernelAgainstReference(t, fmt.Sprintf("%v/seed%d", k, seed), r, k, threads, threads))
		}
		for i, c := range sparse {
			r := engine.NewRand(uint64(configs+i)*131 + uint64(k) + 1)
			total.add(checkKernelAgainstReference(t, fmt.Sprintf("%v/%dof%d", k, c.threads, c.cores), r, k, c.cores, c.threads))
		}
	}
	if total.ties == 0 {
		t.Fatal("no grant was decided by a clock tie; the generator is not exercising the tie-break")
	}
	if total.served == 0 || total.served0 == 0 {
		t.Fatalf("%d grants served by the dispatch loop, %d of them thread 0's; the generator is not exercising parked walks",
			total.served, total.served0)
	}
	t.Logf("%d tie-decided grants, %d served walk turns (%d on thread 0)", total.ties, total.served, total.served0)
}

// refTotals sums what the reference configs exercised: tie-decided
// grants, and the grants the kernel's dispatch loop served for a parked
// walk, overall and on thread 0.
type refTotals struct{ ties, served, served0 int }

func (t *refTotals) add(u refTotals) {
	t.ties += u.ties
	t.served += u.served
	t.served0 += u.served0
}

// checkKernelAgainstReference runs one TestKernelMatchesReferenceScheduler
// config: threads programs drawn from r on two identical machines of the
// given core count and mechanism. It returns the reference's tie-decided
// grants and the kernel's served walk turns.
func checkKernelAgainstReference(t *testing.T, name string, r *engine.Rand, k mech.Kind, cores, threads int) (tot refTotals) {
	t.Helper()
	nLines := 1 + r.Intn(4)
	build := func() (*System, *refLog, []isa.Addr) {
		log := &refLog{}
		cfg := TestConfig(cores).WithMechanism(k)
		cfg.Rec = log
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var words []isa.Addr
		for i := 0; i < nLines; i++ {
			line := s.StaticAlloc(8)
			words = append(words, line, line+isa.WordSize)
		}
		return s, log, words
	}
	kern, kernLog, words := build()
	ref, refLogged, refWords := build()
	if !reflect.DeepEqual(words, refWords) {
		t.Fatalf("%s: identical machines allocated different words", name)
	}
	for round := 0; round < 2; round++ {
		lists := randomLists(r, threads, words)
		if round > 0 {
			kern.SyncClocks()
			ref.SyncClocks()
		}
		kern.Run(listPrograms(lists, &tot.served0))
		tot.ties += refSchedule(ref, lists)
	}
	tot.served = int(kern.sched.served)
	if !reflect.DeepEqual(kernLog.recs, refLogged.recs) {
		n := len(kernLog.recs)
		if len(refLogged.recs) < n {
			n = len(refLogged.recs)
		}
		i := 0
		for i < n && kernLog.recs[i] == refLogged.recs[i] {
			i++
		}
		t.Fatalf("%s: recorder streams diverge at record %d of %d/%d", name, i,
			len(kernLog.recs), len(refLogged.recs))
	}
	if !reflect.DeepEqual(kern.clocks, ref.clocks) {
		t.Fatalf("%s: final clocks %v, reference %v", name, kern.clocks, ref.clocks)
	}
	if kern.Stats() != ref.Stats() {
		t.Fatalf("%s: Stats %+v, reference %+v", name, kern.Stats(), ref.Stats())
	}
	return tot
}
