// Command e2ebench times the jobs people run with the lrp simulator, end
// to end and layer by layer: a Figure 5 cell matrix at the paper's 32
// threads (fig5-t32), one kv trace replayed under every mechanism
// (replay-kv), and exhaustive crash-boundary sweeps with recovery walks
// and durable-linearizability checks (sweep-kv). BENCHMARK.json at the
// repository root lists the workloads and metrics.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash e2ebench/run.sh --workload fig5-t32 --seed 7 --seconds 30 --trace 0
//
// --workload all runs the three workloads in turn, each with its own report.
// The self-check (go test in this directory) runs every workload at a tiny
// size.
//
// Each workload is a closed loop with one client. Set-up builds the job's
// inputs from the seed (several times; setup_s is the median). Jobs then
// run back to back, and no job starts that, at the median job time so far,
// would end past --seconds. Every
// job's outputs are checked; a failed check counts the job as failed and
// the loop goes on.
//
// The process runs on one P (GOMAXPROCS 1). Every job is serial: the
// Figure 5 kernel grants one simulated thread at a time, and replay and
// sweep run on one goroutine. A second P would only add cross-CPU goroutine
// wake-ups and idle-time GC work, whose cost depends on what else the host
// runs. The timed end-to-end metrics (setup_s, job_s, work_per_s) are host
// CPU seconds of the process, user plus system, scaled to a reference host
// speed (hostspeed.go): on a shared virtual host, both the time the process
// waits for a CPU and the speed of the CPU it gets swing from run to run,
// and neither is the program's cost. heap_peak_mb is the largest heap in
// use during any job of the run. The summary prints raw CPU and wall times
// beside the scaled ones.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 the run first keeps one untraced
// reference job's outputs, then alternates untraced and traced jobs: spans
// around the calls into each layer, plus the machine's own phase profiler
// where a machine is built. The last line then
// carries the per-layer metrics, and the spans are written under
// .bench_build/spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrp"
	"lrp/internal/perf"
)

// Set-up runs at least minSetupReps times and for at least minSetupTime
// (at most maxSetupReps times); setup_s is the median. A set-up of tens of
// milliseconds needs the extra repetitions for a steady median.
const (
	// refEvery is the CPU time after which a job's next gap runs the
	// reference kernel (see hostspeed.go).
	refEvery = 250 * time.Millisecond

	minSetupReps = 5
	maxSetupReps = 50
	minSetupTime = time.Second
)

// params are the inputs a workload is built from.
type params struct {
	seed uint64
	// tiny shrinks every job to a size the self-check runs in seconds.
	tiny bool
}

// workload builds one set-up's inputs from params.
type workload struct {
	name string
	// rateName names work_per_s for this workload in the printed summary.
	rateName string
	setup    func(p params) (bench, error)
}

// bench is one set-up's inputs and the jobs that run over them.
type bench interface {
	// job runs one untraced job, calling gap between its units of work
	// (cells, replays, sweeps). It returns the job's outputs; the harness
	// requires out.fp to be identical across the run's jobs.
	job(gap func()) (jobOut, error)
	// reference runs one untraced job through the workload's public entry
	// point and keeps the outputs every traced job must reproduce.
	reference() error
	// traced runs one traced job, recording spans into tr. It fails when
	// the job's outputs differ from the reference's.
	traced(tr *tracer) (tracedOut, error)
}

type jobOut struct {
	// work is the job's unit count: simulated memory ops, or crash
	// boundaries checked.
	work float64
	// fp fingerprints the job's outputs.
	fp string
	// note, when set, summarizes what the job found; the run prints the
	// first good job's note.
	note string
}

type tracedOut struct {
	// layers holds the job's per-layer values by metric name.
	layers map[string]float64
	// covered is the host time the layer spans and phases account for;
	// the rest of the job's wall time is reported as unattributed.
	covered time.Duration
}

var workloads = []workload{
	{"fig5-t32", "sim_ops_per_s", setupFig5},
	{"replay-kv", "sim_ops_per_s", setupReplay},
	{"sweep-kv", "boundaries_per_s", setupSweep},
}

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// The end-to-end metrics, printed by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"work_per_s", "1/s"},
	{"alloc_mb_per_job", "MB"},
	{"heap_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics, printed by every traced run. A
// layer a workload does not enter reads 0 there.
func perLayer() []metricDef {
	ds := []metricDef{
		{"memsys.scheduler.self_s", "s"},
		{"memsys.scheduler.ns_per_grant", "ns"},
		{"memsys.grants_per_simop", "count"},
		{"memsys.runahead_share", "ratio"},
		{"memsys.protocol.self_s", "s"},
		{"memsys.protocol.ns_per_simop", "ns"},
		{"mech.self_s", "s"},
		{"mech.ns_per_hook", "ns"},
		{"persist.engine_scan.self_s", "s"},
		{"persist.engine_scan.ns_per_scan", "ns"},
		{"nvm.self_s", "s"},
		{"nvm.ns_per_event", "ns"},
		{"bench.recorder.self_s", "s"},
		{"workload.fill_s", "s"},
		{"workload.window_s", "s"},
		{"workload.window_op_share", "ratio"},
		{"unattributed_s", "s"},
		{"unattributed_share", "ratio"},
		{"sim.ops", "count"},
		{"sim.exec_cycles", "cycles"},
		{"sim.persists", "count"},
		{"sim.critical_persists", "count"},
		{"sim.stall_cycles", "cycles"},
		{"runtime.gc_pause_s", "s"},
		{"runtime.alloc_bytes_per_simop", "B"},
		{"trace.decode_s", "s"},
		{"trace.decode_ns_per_op", "ns"},
		{"trace.replay_decode_s", "s"},
	}
	for _, k := range lrp.MechanismNames() {
		ds = append(ds, metricDef{"trace.replay_ns_per_op." + k, "ns"})
	}
	ds = append(ds, metricDef{"crash.enumerate_s", "s"}, metricDef{"crash.first_rp_s", "s"})
	for _, m := range sweepMechs {
		k := m.String()
		cursor := metricDef{"nvm.cursor_s." + k, "s"}
		if m == lrp.EADR {
			cursor.name = "mech.crash_cursor_s." + k
		}
		ds = append(ds,
			metricDef{"crash.boundaries." + k, "count"},
			metricDef{"model.checkcut_s." + k, "s"},
			metricDef{"model.checkcut_ns_per_boundary." + k, "ns"},
			metricDef{"model.rp_bad." + k, "count"},
			metricDef{"model.arp_bad." + k, "count"},
			cursor,
			metricDef{"recovery.walk_s." + k, "s"},
			metricDef{"recovery.ns_per_walk." + k, "ns"},
			metricDef{"recovery.dirty_walks." + k, "count"},
			metricDef{"recovery.quarantined." + k, "count"},
			metricDef{"dlin.build_s." + k, "s"},
			metricDef{"dlin.check_s." + k, "s"},
			metricDef{"dlin.ns_per_check." + k, "ns"},
			metricDef{"dlin.bad." + k, "count"},
		)
	}
	return append(ds,
		metricDef{"traced_job_s", "s"},
		metricDef{"tracing_overhead", "ratio"},
	)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tiny     bool
	// spansDir receives the traced run's span file.
	spansDir string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+", or all of them in turn")
	flag.Uint64Var(&o.seed, "seed", 7, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.spansDir, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(1)
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one benchmark run and prints its report to out, the result
// object last. Workload "all" runs every workload in turn.
func run(o options, out io.Writer) error {
	if o.workload == "all" {
		for _, w := range workloads {
			one := o
			one.workload = w.name
			if err := run(one, out); err != nil {
				return err
			}
		}
		return nil
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	prov := provenance(o)
	fmt.Fprintln(out, prov)

	p := params{seed: o.seed, tiny: o.tiny}
	var b bench
	var setups scaler
	nSetups := 0
	setups.ref()
	for setupStart := time.Now(); nSetups < maxSetupReps &&
		(nSetups < minSetupReps || time.Since(setupStart) < minSetupTime); nSetups++ {
		runtime.GC()
		start := cpuTime()
		var err error
		if b, err = w.setup(p); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups.add(nSetups, cpuTime()-start)
		setups.ref()
	}
	budget := time.Duration(o.seconds) * time.Second
	var res result
	if o.trace {
		res = runTraced(o, b, budget, out, prov)
	} else {
		setupRaw, setupScaled := setups.times(nSetups)
		res = runUntraced(b, w.rateName, budget, setupRaw, setupScaled, setups.refs, out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// runUntraced times untraced jobs for the budget and reports the
// end-to-end metrics.
func runUntraced(b bench, rateName string, budget time.Duration, setupRaw, setupScaled, setupRefs []float64, out io.Writer) result {
	heap := startHeapSampler()
	var (
		attempted, failed int
		jobs              scaler
		wall, work        []float64
		alloc             []float64
		peaks             []float64
		refFP             string
	)
	loopStart := time.Now()
	for attempted == 0 || time.Since(loopStart)+time.Duration(median(wall)*float64(time.Second)) <= budget {
		jobs.ref()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		heap.take()
		// The reference kernel also runs in the job's gaps once refEvery
		// of CPU time has passed; its time is left out of the job's.
		t, segs := len(wall), len(jobs.segs)
		var refWall time.Duration
		start, seg := time.Now(), cpuTime()
		jo, err := b.job(func() {
			if cpuTime()-seg < refEvery {
				return
			}
			jobs.add(t, cpuTime()-seg)
			r := time.Now()
			jobs.ref()
			refWall += time.Since(r)
			seg = cpuTime()
		})
		jobs.add(t, cpuTime()-seg)
		elapsed := time.Since(start) - refWall
		peak := heap.take()
		runtime.ReadMemStats(&after)
		attempted++
		if err = sameOutputs(&refFP, jo, err); err != nil {
			failed++
			fmt.Fprintf(out, "job %d failed: %v\n", attempted, err)
			jobs.segs = jobs.segs[:segs]
			continue
		}
		if jo.note != "" && len(wall) == 0 {
			fmt.Fprint(out, jo.note)
		}
		wall = append(wall, elapsed.Seconds())
		work = append(work, jo.work)
		alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		peaks = append(peaks, float64(peak)/1e6)
	}
	jobs.ref()
	heap.stop()
	raw, scaled := jobs.times(len(wall))
	rate := make([]float64, len(work))
	for i := range work {
		rate[i] = work[i] / scaled[i]
	}

	res := result{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	vals := map[string]float64{
		"setup_s":          median(setupScaled),
		"job_s":            median(scaled),
		"work_per_s":       median(rate),
		"alloc_mb_per_job": median(alloc),
		"heap_peak_mb":     slices.Max(append(peaks, 0)),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	fmt.Fprintf(out, "%-18s %12.4f s   (scaled CPU time, median of %d set-ups; raw CPU %.4f s)\n",
		"setup_s", median(setupScaled), len(setupRaw), median(setupRaw))
	fmt.Fprintf(out, "%-18s %12.4f s   (scaled CPU time, median of %d jobs; raw CPU %.4f s, wall %.4f s)\n",
		"job_s", median(scaled), len(raw), median(raw), median(wall))
	fmt.Fprintf(out, "%-18s %12.0f /s  (per scaled CPU second, median of %d jobs)\n", rateName, median(rate), len(rate))
	fmt.Fprintf(out, "%-18s %12.4f s   (reference kernel CPU time, median of %d runs; scaled to %.4f s)\n",
		"reference", median(append(setupRefs, jobs.refs...)), len(setupRefs)+len(jobs.refs), refSeconds)
	fmt.Fprintf(out, "%-18s %12.2f MB  (median of %d jobs)\n", "alloc_mb_per_job", median(alloc), len(alloc))
	fmt.Fprintf(out, "%-18s %12.2f MB  (largest heap in use during any of %d jobs; median job %.2f MB)\n",
		"heap_peak_mb", slices.Max(append(peaks, 0)), len(peaks), median(peaks))
	fmt.Fprintf(out, "%-18s %12.4f     (%d of %d jobs failed)\n", "fail_share", float64(failed)/float64(attempted), failed, attempted)
	return res
}

// minOverheadPairs is the least number of untraced/traced job pairs a
// traced run makes, so tracing_overhead divides two medians.
const minOverheadPairs = 3

// runTraced runs one untraced reference job, then pairs of one untraced
// and one traced job for the rest of the budget (at least
// minOverheadPairs), and reports the per-layer metrics (medians over the
// traced jobs). tracing_overhead is the traced jobs' median time over the
// untraced jobs' median time.
func runTraced(o options, b bench, budget time.Duration, out io.Writer, prov string) result {
	res := result{Metrics: map[string]metric{}}
	loopStart := time.Now()
	runtime.GC()
	refErr := b.reference()
	res.Attempted++
	if refErr != nil {
		res.Failed++
		fmt.Fprintf(out, "reference job failed: %v\n", refErr)
	}

	tr := newTracer()
	samples := map[string][]float64{}
	var jobS, untracedS []float64
	var refFP string
	for pairs := 0; pairs < minOverheadPairs ||
		time.Since(loopStart)+time.Duration((median(jobS)+median(untracedS))*float64(time.Second)) <= budget; pairs++ {
		runtime.GC()
		start := time.Now()
		jo, err := b.job(func() {})
		elapsed := time.Since(start)
		res.Attempted++
		if err = sameOutputs(&refFP, jo, err); err != nil {
			res.Failed++
			fmt.Fprintf(out, "untraced job %d failed: %v\n", res.Attempted-1, err)
		} else {
			untracedS = append(untracedS, elapsed.Seconds())
		}

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.beginJob()
		start = time.Now()
		to, err := b.traced(tr)
		elapsed = time.Since(start)
		tr.endJob()
		runtime.ReadMemStats(&after)
		res.Attempted++
		if err == nil && refErr != nil {
			err = errors.New("no reference outputs to compare with")
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(out, "traced job %d failed: %v\n", res.Attempted-1, err)
			continue
		}
		wall := elapsed.Seconds()
		jobS = append(jobS, wall)
		v := to.layers
		v["unattributed_s"] = wall - to.covered.Seconds()
		v["unattributed_share"] = v["unattributed_s"] / wall
		v["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		if ops := v["sim.ops"]; ops > 0 {
			v["runtime.alloc_bytes_per_simop"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
		}
		v["traced_job_s"] = wall
		for name, x := range v { // maprange:ok — collected per name; output order comes from perLayer
			samples[name] = append(samples[name], x)
		}
	}
	res.Correct = res.Failed == 0
	if len(jobS) > 0 && len(untracedS) > 0 {
		samples["tracing_overhead"] = []float64{median(jobS) / median(untracedS)}
	}

	for _, d := range perLayer() {
		res.Metrics[d.name] = metric{median(samples[d.name]), d.unit}
	}
	for name := range samples { // maprange:ok — checks membership only
		if _, ok := res.Metrics[name]; !ok {
			fmt.Fprintf(out, "warning: traced job reported undeclared metric %s\n", name)
		}
	}
	fmt.Fprintf(out, "%d untraced jobs, median %.4f s; %d traced jobs, median %.4f s\n",
		len(untracedS), median(untracedS), len(jobS), median(jobS))
	for _, d := range perLayer() {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "%-40s %16.4f     (%d of %d jobs failed)\n", "fail_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
		if err := tr.write(path, prov); err != nil {
			fmt.Fprintf(out, "spans not written: %v\n", err)
		} else {
			fmt.Fprintf(out, "spans: %s (%d)\n", path, len(tr.spans))
		}
	}
	return res
}

// sameOutputs passes on a job's error, or fails a job whose outputs differ
// from those of the run's first good job, which it records in refFP.
func sameOutputs(refFP *string, jo jobOut, err error) error {
	switch {
	case err != nil:
		return err
	case *refFP == "":
		*refFP = jo.fp
	case jo.fp != *refFP:
		return errors.New("outputs differ from the run's first job")
	}
	return nil
}

// provenance is the line every report starts with: what ran, from which
// code, on what.
func provenance(o options) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			rev += "+modified"
		}
	}
	env := perf.HostEnv()
	return fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v tiny=%v revision=%s go=%s GOMAXPROCS=%d cpu=%q numcpu=%d %s/%s",
		o.workload, o.seed, o.seconds, o.trace, o.tiny, rev, env.GoVersion, env.GOMAXPROCS,
		env.CPUModel, env.NumCPU, env.GOOS, env.GOARCH)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler polls the bytes of heap objects (live and not yet swept)
// and keeps the largest reading since the last take.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new interval.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}
