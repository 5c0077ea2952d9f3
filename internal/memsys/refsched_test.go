package memsys

import (
	"fmt"
	"reflect"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
)

// refStep is one straight-line program step: gap cycles of compute, then
// one memory operation.
type refStep struct {
	gap engine.Time
	op  isa.Op
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

// refSchedule is the reference scheduler: it grants one operation at a
// time to the thread whose issue clock (its clock plus the step's gap)
// is smallest, ties to the smaller thread id, found by a plain scan over
// all threads, and performs it with Step. It returns how many grants
// were decided by a tie.
func refSchedule(s *System, lists [][]refStep) (ties int) {
	pc := make([]int, len(lists))
	for {
		best, tied := -1, false
		var bestAt engine.Time
		for tid, l := range lists {
			if pc[tid] == len(l) {
				continue
			}
			at := s.clocks[tid] + l[pc[tid]].gap
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
		s.Step(best, st.gap, st.op)
		pc[best]++
	}
	s.FlushRecorder()
	return ties
}

// listPrograms turns step lists into Programs issuing the same operations
// through the Ctx API.
func listPrograms(lists [][]refStep) []Program {
	progs := make([]Program, len(lists))
	for i, l := range lists {
		l := l
		progs[i] = func(c *Ctx) {
			for _, st := range l {
				c.Work(st.gap)
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
// and fails.
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
			a := words[r.Intn(len(words))]
			v := uint64(r.Intn(4))
			var op isa.Op
			switch r.Intn(5) {
			case 0:
				op = isa.LoadOp(a)
			case 1:
				op = isa.LoadAcq(a)
			case 2:
				op = isa.StoreOp(a, v)
			case 3:
				op = isa.StoreRel(a, v)
			default:
				op = isa.CASOp(a, uint64(r.Intn(4)), v, isa.Ordering(r.Intn(4)))
			}
			l[i] = refStep{gap: gap, op: op}
		}
		lists[tid] = l
	}
	return lists
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
// padding in its upper half.
func TestKernelMatchesReferenceScheduler(t *testing.T) {
	const configs = 30
	sparse := []struct{ cores, threads int }{{4, 3}, {8, 5}, {8, 7}, {16, 6}, {16, 11}, {64, 13}, {64, 33}}
	totalTies := 0
	for _, k := range mech.Kinds() {
		for seed := 0; seed < configs; seed++ {
			r := engine.NewRand(uint64(seed)*131 + uint64(k) + 1)
			threads := 2 + r.Intn(7)
			totalTies += checkKernelAgainstReference(t, fmt.Sprintf("%v/seed%d", k, seed), r, k, threads, threads)
		}
		for i, c := range sparse {
			r := engine.NewRand(uint64(configs+i)*131 + uint64(k) + 1)
			totalTies += checkKernelAgainstReference(t, fmt.Sprintf("%v/%dof%d", k, c.threads, c.cores), r, k, c.cores, c.threads)
		}
	}
	if totalTies == 0 {
		t.Fatal("no grant was decided by a clock tie; the generator is not exercising the tie-break")
	}
	t.Logf("%d tie-decided grants", totalTies)
}

// checkKernelAgainstReference runs one TestKernelMatchesReferenceScheduler
// config: threads programs drawn from r on two identical machines of the
// given core count and mechanism. It returns the reference's tie-decided
// grants.
func checkKernelAgainstReference(t *testing.T, name string, r *engine.Rand, k mech.Kind, cores, threads int) (ties int) {
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
		kern.Run(listPrograms(lists))
		ties += refSchedule(ref, lists)
	}
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
	return ties
}
