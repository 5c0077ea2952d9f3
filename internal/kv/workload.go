package kv

import (
	"fmt"

	"lrp/internal/dlin"
	"lrp/internal/engine"
	"lrp/internal/memsys"
	"lrp/internal/workload"
)

// init registers the multi-tenant persistent KV service: get/set/del/
// cas/scan over sharded hashmap+skiplist, zipfian/hotspot skew.
func init() {
	workload.Register(workload.Kind{
		Name: "kv",
		Run:  run,
		Anchors: func(sys *memsys.System, spec workload.Spec) (workload.Recoverable, error) {
			return New(sys, spec.KV.Normalized(spec.InitialSize)), nil
		},
		Validate: func(spec workload.Spec) error {
			return spec.KV.Normalized(spec.InitialSize).Validate()
		},
	})
}

// runner executes one kv run: it owns the store and the host-side
// service stats (op counts, miss counts, simulated latencies) published
// to the obs registry after the window. Worker
// programs are scheduler coroutines on one host thread, so its fields
// need no locking — channel handoffs order every access.
type runner struct {
	st *Store
	p  workload.KVParams

	valSeq    []uint64 // per-thread value-id sequence
	measuring bool     // inside the measured window (not warm-up)

	ops       [5]uint64   // per-OpKind completions
	miss      [5]uint64   // per-OpKind misses (get/del absent, cas conflict)
	lat       [5][]uint64 // per-OpKind simulated latencies
	tenantOps []uint64
	scanKeys  uint64 // live keys returned across all scans
}

func run(sys *memsys.System, spec workload.Spec) (*workload.Result, workload.Recoverable, error) {
	p := spec.KV.Normalized(spec.InitialSize)
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	st := New(sys, p)
	g := NewGen(p, spec.Seed)
	r := &runner{
		st: st, p: p,
		valSeq:    make([]uint64, spec.Threads),
		tenantOps: make([]uint64, p.Tenants),
	}

	// Warm-up: every even key of every tenant is Set once, so the store
	// starts half-full and the window's gets/deletes hit present and
	// absent keys evenly. Keys are dealt round-robin across the workers
	// and each worker writes its share in shuffled order (the same
	// discipline as the set workloads' warm fill).
	warm := make([]memsys.Program, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		i := i
		warm[i] = func(c *memsys.Ctx) {
			wr := engine.NewRand(spec.Seed ^ 0xfeed ^ uint64(i)<<20)
			type tk struct {
				tenant int
				key    uint64
			}
			var keys []tk
			idx := 0
			for t := 0; t < p.Tenants; t++ {
				for k := uint64(2); k <= uint64(p.KeysPerTenant); k += 2 {
					if idx%spec.Threads == i {
						keys = append(keys, tk{t, k})
					}
					idx++
				}
			}
			for j := len(keys) - 1; j > 0; j-- {
				o := wr.Intn(j + 1)
				keys[j], keys[o] = keys[o], keys[j]
			}
			for _, e := range keys {
				nw := p.MinValWords + wr.Intn(p.MaxValWords-p.MinValWords+1)
				r.doSet(c, Request{Tenant: e.tenant, Op: ReqSet, Key: e.key, ValWords: nw})
			}
		}
	}
	sys.Run(warm)

	// The request streams are generated up front — open loop: the keys,
	// ops, and value sizes a thread will issue are a pure function of
	// (params, seed, thread), independent of any response.
	streams := make([][]Request, spec.Threads)
	for i := range streams {
		streams[i] = g.Stream(i, spec.OpsPerThread)
	}

	work := make([]memsys.Program, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		i := i
		work[i] = func(c *memsys.Ctx) {
			for _, rq := range streams[i] {
				c.Work(spec.OpCost())
				r.exec(c, rq)
			}
		}
	}
	r.measuring = true
	res := workload.Measure(sys, spec, work)
	r.publish(sys)
	return res, st, nil
}

// nextVal draws the thread's next value id (nonzero, globally unique).
func (r *runner) nextVal(tid int) uint64 {
	r.valSeq[tid]++
	return uint64(tid+1)<<32 | r.valSeq[tid]
}

// note records one completed request's service stats.
func (r *runner) note(rq Request, ok bool, lat engine.Time) {
	if !r.measuring {
		return
	}
	r.ops[rq.Op]++
	if !ok {
		r.miss[rq.Op]++
	}
	r.lat[rq.Op] = append(r.lat[rq.Op], uint64(lat))
	r.tenantOps[rq.Tenant]++
}

func (r *runner) exec(c *memsys.Ctx, rq Request) {
	switch rq.Op {
	case ReqGet:
		r.doGet(c, rq)
	case ReqSet:
		r.doSet(c, rq)
	case ReqDel:
		r.doDel(c, rq)
	case ReqCAS:
		r.doCAS(c, rq)
	case ReqScan:
		r.doScan(c, rq)
	}
}

// The do* methods bracket each request with Ctx.OpBegin/OpEnd in the
// dlin encoding, for the machine's history capture.

func (r *runner) doGet(c *memsys.Ctx, rq Request) {
	inv := c.Now()
	c.OpBegin(uint8(dlin.OpGet), globalKey(rq.Tenant, rq.Key), 0)
	id, ok := r.st.Get(c, rq.Tenant, rq.Key)
	c.OpEnd(ok, id)
	r.note(rq, ok, c.Now()-inv)
}

func (r *runner) doSet(c *memsys.Ctx, rq Request) {
	id := r.nextVal(c.ThreadID())
	inv := c.Now()
	c.OpBegin(uint8(dlin.OpSet), globalKey(rq.Tenant, rq.Key), id)
	r.st.Set(c, rq.Tenant, rq.Key, id, rq.ValWords)
	c.OpEnd(true, 0)
	r.note(rq, true, c.Now()-inv)
}

func (r *runner) doDel(c *memsys.Ctx, rq Request) {
	inv := c.Now()
	c.OpBegin(uint8(dlin.OpDelete), globalKey(rq.Tenant, rq.Key), 0)
	ok := r.st.Delete(c, rq.Tenant, rq.Key)
	c.OpEnd(ok, 0)
	r.note(rq, ok, c.Now()-inv)
}

// doCAS is memcached's compare-and-swap: observe the key's current
// value, then install a fresh record iff it has not changed. OpBegin
// comes after the observation — the expected value is an output of the
// read, and the begin carries it in its value slot; the end returns the
// new value id (dlin.Builder maps them to Op.Exp and Op.Val).
func (r *runner) doCAS(c *memsys.Ctx, rq Request) {
	gk := globalKey(rq.Tenant, rq.Key)
	inv := c.Now()
	cell, cur, exp, live := r.st.Read(c, rq.Tenant, rq.Key)
	if !live {
		c.OpBegin(uint8(dlin.OpCAS), gk, 0)
		c.OpEnd(false, 0)
		r.note(rq, false, c.Now()-inv)
		return
	}
	id := r.nextVal(c.ThreadID())
	c.OpBegin(uint8(dlin.OpCAS), gk, exp)
	ok := r.st.Swap(c, cell, cur, rq.Tenant, rq.Key, id, rq.ValWords)
	c.OpEnd(ok, id)
	r.note(rq, ok, c.Now()-inv)
}

func (r *runner) doScan(c *memsys.Ctx, rq Request) {
	inv := c.Now()
	c.OpBegin(uint8(dlin.OpScan), globalKey(rq.Tenant, rq.Key), 0)
	n := r.st.Scan(c, rq.Tenant, rq.Key, r.p.ScanLen)
	c.OpEnd(n > 0, uint64(n))
	if r.measuring {
		r.scanKeys += uint64(n)
	}
	r.note(rq, n > 0, c.Now()-inv)
}

// publish lands the service metrics in the machine's obs registry (a
// no-op when observability is disabled). Publication happens after the
// measured window, off the simulated timeline — observability must
// never perturb simulated time.
func (r *runner) publish(sys *memsys.System) {
	o := sys.Observer()
	if o == nil {
		return
	}
	reg := o.Registry()
	if reg == nil {
		return
	}
	names := [5]string{"get", "set", "del", "cas", "scan"}
	for k, name := range names {
		if r.ops[k] == 0 {
			continue
		}
		reg.Counter("kv/ops/" + name).Add(r.ops[k])
		if r.miss[k] > 0 {
			reg.Counter("kv/miss/" + name).Add(r.miss[k])
		}
		hist := reg.Histogram("kv/lat/" + name)
		for _, v := range r.lat[k] {
			hist.Observe(v)
		}
	}
	for t, n := range r.tenantOps {
		if n > 0 {
			reg.Counter(fmt.Sprintf("kv/tenant%d/ops", t)).Add(n)
		}
	}
	if r.scanKeys > 0 {
		reg.Counter("kv/scan/keys").Add(r.scanKeys)
	}
}
