package main

import (
	"fmt"
	"time"

	"lrp"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/perf"
	"lrp/internal/stats"
)

// fig5 is Figure 5 at the paper's 32 threads: the five paper structures at
// the experiment-default sizes under NOP and LRP, 100 ops/thread.
//
// The job runs the figure's cell matrix through lrp.RunWorkload, serially
// and in the figure's cell order, exactly as lrp.Fig5 does with Parallel 1,
// and renders the same normalized table; running the cells itself is what
// lets the benchmark count each cell's simulated ops. The traced run's
// reference job is lrp.Fig5 itself, whose table every traced job must
// reproduce, and the self-check compares the two tables at tiny size.
type fig5 struct {
	o lrp.ExperimentOpts
	// sizes are the per-structure initial sizes (the experiment defaults,
	// scaled by o.SizeScale).
	sizes map[string]int
	ref   string // lrp.Fig5's table, from reference()
	// tracedRef holds the first traced job's cells.
	tracedRef []cellOut
}

// fig5Sizes are lrp's experiment-default structure sizes.
var fig5Sizes = map[string]int{
	"linkedlist": 512,
	"hashmap":    16384,
	"bstree":     8192,
	"skiplist":   8192,
	"queue":      2048,
}

func fig5Opts(p params) lrp.ExperimentOpts {
	o := lrp.ExperimentOpts{Threads: 32, Ops: 100, SizeScale: 1, Seed: p.seed, SeedSet: true,
		Cores: 32, Parallel: 1, Mechs: []lrp.Mechanism{lrp.LRP}}
	if p.tiny {
		o.Threads, o.Cores, o.Ops, o.SizeScale = 4, 16, 10, 1.0/16
	}
	return o
}

// setupFig5 has no inputs to generate: the seed is the whole input. Its
// set-up is one job at a tenth of the ops and an eighth of the sizes, so
// the Go heap and goroutine stacks have grown before the first timed job.
func setupFig5(p params) (bench, error) {
	warm := newFig5(fig5Opts(p))
	warm.o.Ops = max(warm.o.Ops/10, 1)
	warm.o.SizeScale /= 8
	warm.sizes = scaledSizes(warm.o.SizeScale)
	if _, err := warm.job(func() {}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return newFig5(fig5Opts(p)), nil
}

func newFig5(o lrp.ExperimentOpts) *fig5 {
	return &fig5{o: o, sizes: scaledSizes(o.SizeScale)}
}

func scaledSizes(scale float64) map[string]int {
	m := make(map[string]int, len(fig5Sizes))
	for _, s := range lrp.Structures {
		m[s] = max(int(float64(fig5Sizes[s])*scale), 16)
	}
	return m
}

// cells lists the figure's (structure, mechanism) cells in its order: per
// structure, the NOP baseline, then the requested mechanisms.
func (f *fig5) cells() []fig5Cell {
	var cs []fig5Cell
	for _, s := range lrp.Structures {
		for _, k := range append([]lrp.Mechanism{lrp.NOP}, f.o.Mechs...) {
			cfg := lrp.DefaultConfig().WithMechanism(k)
			cfg.Cores = f.o.Cores
			cs = append(cs, fig5Cell{
				label: s + "/" + k.String(),
				cfg:   cfg,
				spec: lrp.Spec{Structure: s, Threads: f.o.Threads, InitialSize: f.sizes[s],
					OpsPerThread: f.o.Ops, Seed: f.o.Seed},
			})
		}
	}
	return cs
}

type fig5Cell struct {
	label string
	cfg   lrp.Config
	spec  lrp.Spec
}

// cellOut is what one cell contributes to the job's outputs.
type cellOut struct {
	exec engine.Time
	ops  uint64 // simulated memory ops, warm-up fill included
}

func (f *fig5) job(gap func()) (jobOut, error) {
	var outs []cellOut
	var work float64
	for i, c := range f.cells() {
		if i > 0 {
			gap()
		}
		res, m, err := lrp.RunWorkload(c.cfg, c.spec)
		if err != nil {
			return jobOut{}, fmt.Errorf("%s: %w", c.label, err)
		}
		outs = append(outs, cellOut{res.ExecTime, m.Stats().Ops})
		work += float64(m.Stats().Ops)
	}
	table := f.table(outs)
	return jobOut{work: work, fp: fmt.Sprint(outs) + "\n" + table}, nil
}

// table renders the normalized table exactly as lrp.Fig5 does.
func (f *fig5) table(outs []cellOut) string {
	per := len(f.o.Mechs) + 1
	header := []string{"workload"}
	for _, k := range f.o.Mechs {
		header = append(header, k.String())
	}
	t := stats.NewTable("Figure 5: execution time normalized to No-Persistency (cached mode)", header...)
	for si, s := range lrp.Structures {
		row := outs[si*per : (si+1)*per]
		cols := []string{s}
		for _, c := range row[1:] {
			cols = append(cols, stats.Ratio(float64(c.exec)/float64(row[0].exec)))
		}
		t.AddRow(cols...)
	}
	t.AddNote("execution time normalized to NOP (volatile); lower is better")
	t.AddNote("threads=%d ops/thread=%d sizes=%v seed=%d", f.o.Threads, f.o.Ops, f.sizes, f.o.Seed)
	return t.Format()
}

func (f *fig5) reference() error {
	t, err := lrp.Fig5(f.o)
	if err != nil {
		return err
	}
	f.ref = t.Format()
	return nil
}

// traced runs the cell matrix with the machine's phase profiler attached
// and a recorder that notes the host time of the window-start mark. Every
// traced job must reproduce lrp.Fig5's table and the first traced job's
// cells.
func (f *fig5) traced(tr *tracer) (tracedOut, error) {
	v := map[string]float64{}
	var outs []cellOut
	var covered time.Duration
	var phases phaseTotals
	var grants, runAhead, windowOps uint64
	for _, c := range f.cells() {
		prof := perf.New(perf.Options{})
		rec := &markRecorder{}
		cfg := c.cfg
		cfg.Perf, cfg.Rec = prof, rec
		start := time.Now()
		id := tr.begin("cell." + c.label)
		res, m, err := lrp.RunWorkload(cfg, c.spec)
		end := time.Now()
		if err != nil {
			tr.end(id)
			return tracedOut{}, fmt.Errorf("%s: %w", c.label, err)
		}
		tr.add("workload.fill", start, rec.windowStart)
		tr.add("workload.window", rec.windowStart, end)
		tr.end(id)
		v["workload.fill_s"] += rec.windowStart.Sub(start).Seconds()
		v["workload.window_s"] += end.Sub(rec.windowStart).Seconds()

		phases.add(prof)
		covered += time.Duration(prof.TotalNs())
		g, ra := m.SchedStats()
		grants += g
		runAhead += ra
		st := m.Stats()
		if rec.ops[0]+rec.ops[1] != st.Ops {
			return tracedOut{}, fmt.Errorf("%s: recorder saw %d ops, the machine counted %d", c.label, rec.ops[0]+rec.ops[1], st.Ops)
		}
		windowOps += rec.ops[1]
		v["sim.ops"] += float64(st.Ops)
		v["sim.exec_cycles"] += float64(res.ExecTime)
		v["sim.persists"] += float64(st.Persists)
		v["sim.critical_persists"] += float64(st.CriticalPersists)
		v["sim.stall_cycles"] += float64(st.StallCycles)
		outs = append(outs, cellOut{res.ExecTime, st.Ops})
	}
	if got := f.table(outs); got != f.ref {
		return tracedOut{}, fmt.Errorf("traced cells do not reproduce lrp.Fig5's table:\n%s\nwant:\n%s", got, f.ref)
	}
	if f.tracedRef == nil {
		f.tracedRef = outs
	} else if fmt.Sprint(outs) != fmt.Sprint(f.tracedRef) {
		return tracedOut{}, fmt.Errorf("traced cells %v differ from the first traced job's %v", outs, f.tracedRef)
	}

	phases.report(v)
	// The recorder's own cost lands in the trace I/O phase.
	v["bench.recorder.self_s"] = float64(phases.traceIO) / 1e9
	ops := v["sim.ops"]
	v["memsys.scheduler.ns_per_grant"] = perUnit(float64(phases.ns[0]), float64(grants))
	v["memsys.grants_per_simop"] = perUnit(float64(grants), ops)
	v["memsys.runahead_share"] = perUnit(float64(runAhead), ops)
	v["workload.window_op_share"] = perUnit(float64(windowOps), ops)
	return tracedOut{layers: v, covered: covered}, nil
}

// phaseMetrics names the simulation phases of the machine's profiler,
// scheduler and protocol first; per names the metric of self time per
// region, if any. The trace I/O phase is reported by each workload: it
// holds the Figure 5 recorder's cost, and the replay loop's decoding.
var phaseMetrics = [...]struct {
	phase     perf.Phase
	name, per string
}{
	{perf.PhaseScheduler, "memsys.scheduler", ""},
	{perf.PhaseProtocol, "memsys.protocol", ""},
	{perf.PhaseMechanism, "mech", "ns_per_hook"},
	{perf.PhaseEngineScan, "persist.engine_scan", "ns_per_scan"},
	{perf.PhaseNVM, "nvm", "ns_per_event"},
}

// phaseTotals sums the profiler's phase totals over a job's machines.
type phaseTotals struct {
	ns, regions [len(phaseMetrics)]int64
	traceIO     int64 // self time in the trace I/O phase
}

func (t *phaseTotals) add(p *perf.Profiler) {
	snap := p.Snapshot()
	for i, pm := range phaseMetrics {
		t.ns[i] += snap[pm.phase].Ns
		t.regions[i] += snap[pm.phase].Count
	}
	t.traceIO += snap[perf.PhaseTraceIO].Ns
}

// report sets each simulation phase's self time and, where named, its self
// time per region; protocol time is also given per simulated op.
func (t *phaseTotals) report(v map[string]float64) {
	for i, pm := range phaseMetrics {
		v[pm.name+".self_s"] = float64(t.ns[i]) / 1e9
		if pm.per != "" {
			v[pm.name+"."+pm.per] = perUnit(float64(t.ns[i]), float64(t.regions[i]))
		}
	}
	v["memsys.protocol.ns_per_simop"] = perUnit(float64(t.ns[1]), v["sim.ops"])
}

// perUnit is x/n, or 0 when there are no units.
func perUnit(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// markRecorder counts memory ops before and after the window-start mark
// and notes the host time at the mark.
type markRecorder struct {
	ops         [2]uint64 // warm-up fill, measured window
	inWindow    int
	windowStart time.Time
}

func (r *markRecorder) RecordOp(int, engine.Time, isa.Op, uint64, bool) { r.ops[r.inWindow]++ }
func (r *markRecorder) RecordTick(int, engine.Time)                     {}
func (r *markRecorder) RecordSync()                                     {}
func (r *markRecorder) RecordDrain()                                    {}

func (r *markRecorder) RecordMark(id uint8) {
	if id == memsys.MarkWindowStart {
		r.windowStart = time.Now()
		r.inWindow = 1
	}
}

var _ memsys.Recorder = (*markRecorder)(nil)
