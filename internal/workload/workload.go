// Package workload is the benchmark harness of §6.1: for each of the five
// log-free data structures it creates 1–64 workers that issue inserts and
// deletes at a 1:1 ratio (100% updates) over a key range that keeps the
// structure at its initial size in steady state. The harness warms the
// structure to its initial size, synchronizes all thread clocks, then
// measures the update window and reports execution time and the
// persistency counters the paper's figures are built from.
//
// Sizes: the paper fills 8K–1M nodes. The harness accepts any size; the
// default experiment sizes in package lrp are scaled down so the O(n)
// traversal structures stay tractable inside a software-simulated
// machine, and EXPERIMENTS.md records the scaling.
package workload

import (
	"fmt"

	"lrp/internal/dlin"
	"lrp/internal/engine"
	"lrp/internal/lfds"
	"lrp/internal/memsys"
	"lrp/internal/nvm"
	"lrp/internal/recovery"
)

// Structures lists the paper's five workloads in its presentation
// order. Extension workloads (the kv store) register in the workload
// registry (Names()) but stay out of this list: the golden experiment
// tables and the paper's figures are pinned to exactly these five.
var Structures = []string{"linkedlist", "hashmap", "bstree", "skiplist", "queue"}

// Spec describes one workload run.
type Spec struct {
	// Structure is one of Structures.
	Structure string
	// Threads is the worker count (1–64).
	Threads int
	// InitialSize is the number of elements before measurement starts.
	InitialSize int
	// OpsPerThread is the number of operations in the measured window.
	OpsPerThread int
	// ReadPct is the percentage of lookups in the measured mix; the
	// remainder splits 1:1 between inserts and deletes (the paper's
	// default mix is ReadPct = 0, i.e., a 100% update rate).
	ReadPct int
	// Buckets overrides the hash-map bucket count (default size/4).
	Buckets int
	// OpWork is the non-memory compute charged per operation (hashing,
	// comparisons, allocation, call overhead). The simulator's memory
	// operations carry only a 1-cycle issue cost, so without OpWork an
	// operation's span collapses to its cache misses and every persist
	// overhead is inflated relative to a real instruction stream. The
	// default (200 cycles ≈ a few hundred instructions on an OoO core)
	// puts operation spans in the regime the paper measured.
	OpWork int
	// Seed makes the run reproducible.
	Seed uint64
	// KV parameterizes the kv service workload (ignored by the five
	// paper structures). The zero value selects the documented
	// defaults; see KVParams.
	KV KVParams
}

// Validate checks the spec.
func (s Spec) Validate() error {
	k, err := ParseKind(s.Structure)
	if err != nil {
		return err
	}
	if s.Threads <= 0 || s.Threads > 64 {
		return fmt.Errorf("workload: threads must be 1..64, got %d", s.Threads)
	}
	if s.InitialSize < 0 || s.OpsPerThread <= 0 {
		return fmt.Errorf("workload: bad sizes init=%d ops=%d", s.InitialSize, s.OpsPerThread)
	}
	if s.ReadPct < 0 || s.ReadPct > 100 {
		return fmt.Errorf("workload: ReadPct must be 0..100, got %d", s.ReadPct)
	}
	if s.OpWork < 0 {
		return fmt.Errorf("workload: OpWork must be nonnegative, got %d", s.OpWork)
	}
	if k.Validate != nil {
		return k.Validate(s)
	}
	return nil
}

// OpCost returns the configured per-operation compute cost.
func (s Spec) OpCost() engine.Time {
	if s.OpWork == 0 {
		return 200
	}
	return engine.Time(s.OpWork)
}

// keyRange is sized so the structure stays near InitialSize with a 1:1
// insert/delete mix over uniformly random keys.
func (s Spec) keyRange() uint64 {
	r := uint64(s.InitialSize) * 2
	if r < 16 {
		r = 16
	}
	return r
}

// Result is the outcome of one measured window.
type Result struct {
	Spec Spec
	// ExecTime is the wall-clock (virtual) duration of the measured
	// window: max worker clock minus the synchronized start.
	ExecTime engine.Time
	// Ops is the number of data-structure operations completed.
	Ops uint64
	// Sys holds the machine counter deltas over the window.
	Sys memsys.Stats
	// NVM holds the NVM counter deltas over the window.
	NVM nvm.Stats
}

// CriticalWritebackPct is Figure 6's metric: the percentage of write
// backs (persists) that were on some core's critical path.
func (r *Result) CriticalWritebackPct() float64 {
	if r.Sys.Persists == 0 {
		return 0
	}
	return 100 * float64(r.Sys.CriticalPersists) / float64(r.Sys.Persists)
}

// Run executes the workload on a fresh machine with the given config and
// returns the measured window's results. The returned System allows
// further inspection (crash analysis, recovery) when cfg.TrackHB is set.
func Run(cfg memsys.Config, spec Spec) (*Result, *memsys.System, error) {
	res, sys, _, err := RunRecoverable(cfg, spec)
	return res, sys, err
}

// RunRecoverable is Run plus a Recoverable handle bound to the run's
// structure anchors, for crash-image recovery walks after the fact.
func RunRecoverable(cfg memsys.Config, spec Spec) (*Result, *memsys.System, Recoverable, error) {
	res, sys, rec, _, err := runRecoverable(cfg, spec, false)
	return res, sys, rec, err
}

// RunRecoverableHist is RunRecoverable plus a captured operation history:
// every structure call (warm-up fill included) is logged with its
// abstract semantics and linearization stamp, for durable-
// linearizability checking over crash boundaries. The capture adds no
// simulated cycles, so the Result is identical to RunRecoverable's.
func RunRecoverableHist(cfg memsys.Config, spec Spec) (*Result, *memsys.System, Recoverable, *dlin.History, error) {
	return runRecoverable(cfg, spec, true)
}

func runRecoverable(cfg memsys.Config, spec Spec, capture bool) (*Result, *memsys.System, Recoverable, *dlin.History, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	if spec.Threads > cfg.Cores {
		return nil, nil, nil, nil, fmt.Errorf("workload: %d threads exceed %d cores", spec.Threads, cfg.Cores)
	}
	sys, err := memsys.New(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var b *dlin.Builder
	if capture {
		b = dlin.NewBuilder(spec.Structure, cfg.Cores)
		sys.CaptureHistory(b)
	}

	k, err := ParseKind(spec.Structure)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	res, rec, err := k.Run(sys, spec)
	if err != nil || b == nil {
		return res, sys, rec, nil, err
	}
	h, err := b.Finish()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("workload: op history: %w", err)
	}
	return res, sys, rec, h, nil
}

// newSet allocates a set structure's anchors without running any
// initialization program (pure static-arena allocation, no stores).
func newSet(sys *memsys.System, spec Spec) lfds.Set {
	switch spec.Structure {
	case "linkedlist":
		return lfds.NewLinkedList(sys)
	case "hashmap":
		b := spec.Buckets
		if b == 0 {
			b = spec.InitialSize / 4
		}
		if b < 4 {
			b = 4
		}
		return lfds.NewHashMap(sys, b)
	case "bstree":
		return lfds.NewBST(sys)
	case "skiplist":
		return lfds.NewSkipList(sys)
	}
	panic("unreachable: spec validated")
}

func buildSet(sys *memsys.System, spec Spec) lfds.Set {
	set := newSet(sys, spec)
	if t, ok := set.(*lfds.BST); ok {
		sys.RunOne(func(c *memsys.Ctx) { t.Init(c) })
	}
	return set
}

// AnchorsFor rebuilds a Recoverable handle for a machine whose run is
// driven externally — trace replay. Structure constructors only allocate
// static-arena anchors (no stores), and the arena hands out the same
// addresses in the same call order on every machine, so the handle binds
// to the addresses the recorded run used; the recorded op stream itself
// carries all initialization stores. Call it once per replayed machine.
func AnchorsFor(sys *memsys.System, spec Spec) (Recoverable, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k, err := ParseKind(spec.Structure)
	if err != nil {
		return nil, err
	}
	return k.Anchors(sys, spec)
}

// runSet drives a set structure. Every structure call is bracketed with
// Ctx.OpBegin/OpEnd in the dlin encoding, for the machine's history
// capture.
func runSet(sys *memsys.System, spec Spec) (*Result, Recoverable, error) {
	set := buildSet(sys, spec)
	kr := spec.keyRange()

	// Warm-up fill: every even key, split across the workers, so the
	// structure starts at InitialSize and the measured window's random
	// inserts and deletes hit present and absent keys evenly. Each
	// worker inserts its slice in shuffled order: sorted insertion would
	// degenerate the BST into a linear spine and bias every structure's
	// layout.
	warm := make([]memsys.Program, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		i := i
		warm[i] = func(c *memsys.Ctx) {
			var keys []uint64
			for k := uint64(2 + 2*i); k <= kr; k += 2 * uint64(spec.Threads) {
				keys = append(keys, k)
			}
			r := engine.NewRand(spec.Seed ^ 0xfeed ^ uint64(i)<<20)
			for j := len(keys) - 1; j > 0; j-- {
				o := r.Intn(j + 1)
				keys[j], keys[o] = keys[o], keys[j]
			}
			for _, k := range keys {
				v := recovery.DefaultVal(k)
				c.OpBegin(uint8(dlin.OpInsert), k, v)
				c.OpEnd(set.Insert(c, k, v), 0)
			}
		}
	}
	sys.Run(warm)
	sys.SyncClocks()
	sys.Mark(memsys.MarkWindowStart)

	start := sys.Time()
	sysBefore := sys.Stats()
	nvmBefore := sys.NVM().Stats()

	work := make([]memsys.Program, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		i := i
		work[i] = func(c *memsys.Ctx) {
			r := engine.NewRand(spec.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
			for n := 0; n < spec.OpsPerThread; n++ {
				c.Work(spec.OpCost())
				key := r.Uint64n(kr) + 1
				switch {
				case spec.ReadPct > 0 && r.Intn(100) < spec.ReadPct:
					c.OpBegin(uint8(dlin.OpContains), key, 0)
					c.OpEnd(set.Contains(c, key), 0)
				case r.Bool():
					v := recovery.DefaultVal(key)
					c.OpBegin(uint8(dlin.OpInsert), key, v)
					c.OpEnd(set.Insert(c, key, v), 0)
				default:
					c.OpBegin(uint8(dlin.OpDelete), key, 0)
					c.OpEnd(set.Delete(c, key), 0)
				}
			}
		}
	}
	end := sys.Run(work)
	sys.Mark(memsys.MarkWindowEnd)

	return Collect(spec, sys, start, end, sysBefore, nvmBefore), set, nil
}

// runQueue drives the MS queue, bracketing its calls like runSet.
func runQueue(sys *memsys.System, spec Spec) (*Result, Recoverable, error) {
	q := lfds.NewQueue(sys)
	sys.RunOne(func(c *memsys.Ctx) { q.Init(c) })

	enqueue := func(c *memsys.Ctx, v uint64) {
		c.OpBegin(uint8(dlin.OpEnqueue), 0, v)
		q.Enqueue(c, v)
		c.OpEnd(true, 0)
	}
	dequeue := func(c *memsys.Ctx) {
		c.OpBegin(uint8(dlin.OpDequeue), 0, 0)
		v, ok := q.Dequeue(c)
		c.OpEnd(ok, v)
	}

	// Warm-up: fill InitialSize elements from thread 0.
	sys.RunOne(func(c *memsys.Ctx) {
		for n := 0; n < spec.InitialSize; n++ {
			enqueue(c, uint64(n)+1)
		}
	})
	sys.SyncClocks()
	sys.Mark(memsys.MarkWindowStart)

	start := sys.Time()
	sysBefore := sys.Stats()
	nvmBefore := sys.NVM().Stats()

	work := make([]memsys.Program, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		i := i
		work[i] = func(c *memsys.Ctx) {
			r := engine.NewRand(spec.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
			seq := uint64(1)
			for n := 0; n < spec.OpsPerThread; n++ {
				c.Work(spec.OpCost())
				if r.Bool() {
					enqueue(c, uint64(i+1)<<32|seq)
					seq++
				} else {
					dequeue(c)
				}
			}
		}
	}
	end := sys.Run(work)
	sys.Mark(memsys.MarkWindowEnd)

	return Collect(spec, sys, start, end, sysBefore, nvmBefore), q, nil
}

// Collect assembles a Result from a measured window's boundary
// readings; registered workload runners call it after Mark(WindowEnd).
func Collect(spec Spec, sys *memsys.System, start, end engine.Time, sb memsys.Stats, nb nvm.Stats) *Result {
	// Stats.Sub differences every counter field, so counters added to
	// either Stats struct are windowed here automatically. The previous
	// hand-written subtraction silently passed absolute values through
	// for any field it did not name.
	return &Result{
		Spec:     spec,
		ExecTime: end - start,
		Ops:      uint64(spec.Threads) * uint64(spec.OpsPerThread),
		Sys:      sys.Stats().Sub(sb),
		NVM:      sys.NVM().Stats().Sub(nb),
	}
}
