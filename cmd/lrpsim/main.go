// Command lrpsim regenerates the paper's tables and figures on the
// simulated machine, or runs and records one workload.
//
// Usage:
//
//	lrpsim -experiment fig5 [-threads 16] [-ops 100] [-scale 1.0] [-seed 7] [-parallel N]
//
// Experiments shard their independent simulation cells across -parallel
// worker goroutines (default: one per CPU); tables are byte-identical at
// any worker count.
//
// Experiments: config (Table 1), fig5, fig6, fig7, fig8, size,
// ablation-ret, ablation-readmix, faults (FAULTS.md sweeps), dlin
// (durable-linearizability sweeps, FAULTS.md), replay (the trace-driven
// mechanism comparison, TRACES.md), kv, all.
//
// A single workload can also be run directly:
//
//	lrpsim -run hashmap -mechanism LRP -threads 16 -size 16384 -ops 100
//	       [-cores N] [-uncached] [-readpct 0] [-opwork 0] [-seed 7]
//
// The kv service workload takes its knobs on flags and, after the run
// summary, prints the service metrics (per-op throughput, miss rates,
// latency quantiles, per-tenant load):
//
//	lrpsim -run kv [-tenants 4] [-keys 0] [-skew zipfian] [-theta 990]
//	       [-hotkeypct 10] [-hotoppct 90] [-mix 50,30,5,10,5]
//	       [-minval 1] [-maxval 8] [-scanlen 8]
//
// Trace capture (TRACES.md; cmd/lrptrace replays, inspects and compares
// traces):
//
//	-record FILE    with -run: record the run's memory-op trace to FILE
//	-hist           with -record: also capture the abstract op history
//	                (durable-linearizability checking on replay)
//
// Observability:
//
//	-metrics        print the metrics-registry report after the run or
//	                the experiment
//	-json           with -run: the registry as machine-readable JSON
//	                (lrpmetrics/v1, deterministic key order) on stdout;
//	                the -record and -trace status lines go to stderr
//	-perf           with -run: attach the host-side phase profiler and
//	                print the per-phase host-time report (the host/*
//	                gauges also land in the -metrics registry)
//	-trace FILE     with -run: write a Chrome trace_event JSON
//	                (Perfetto-loadable)
//	-pprof ADDR     serve net/http/pprof while the simulation runs
//
// A flag the chosen mode does not read is an error naming the flag and
// the mode: -theta is read only under the zipfian skew, -hotkeypct and
// -hotoppct only under hotspot, -scanlen only with scans in the mix, and
// -readpct by every structure but queue and kv, which have their own.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"lrp"
	"lrp/internal/cli"
	"lrp/internal/perf"
)

func main() { cli.Main("lrpsim", run) }

// optFlags are the flags that set ExperimentOpts.
var optFlags = []string{"threads", "ops", "scale", "seed", "parallel"}

// runSpec is one -run invocation, bound from its flags.
type runSpec struct {
	cfg                       lrp.Config
	spec                      lrp.Spec
	record, trace             string
	hist, metrics, json, perf bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lrpsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var r runSpec
	s, kv := &r.spec, &r.spec.KV
	experiment := fs.String("experiment", "", "experiment to run: config|fig5|fig6|fig7|fig8|size|ablation-ret|ablation-readmix|faults|dlin|replay|kv|all")
	fs.StringVar(&s.Structure, "run", "", "run a single workload: "+strings.Join(lrp.WorkloadNames(), "|"))
	mechanism := fs.String("mechanism", "LRP", "with -run: mechanism, "+strings.Join(lrp.MechanismNames(), "|"))
	fs.IntVar(&s.Threads, "threads", 16, "worker threads")
	cores := fs.Int("cores", 0, "with -run: simulated cores (0: max(threads, 16))")
	fs.IntVar(&s.OpsPerThread, "ops", 100, "operations per thread in the measured window")
	fs.IntVar(&s.InitialSize, "size", 4096, "with -run: initial structure size")
	fs.IntVar(&s.ReadPct, "readpct", 0, "with -run: lookup percentage in the measured mix (not queue or kv)")
	fs.IntVar(&s.OpWork, "opwork", 0, "with -run: compute cycles per operation (0: default)")
	scale := fs.Float64("scale", 1.0, "with -experiment: size scale factor")
	fs.Uint64Var(&s.Seed, "seed", 7, "deterministic seed")
	parallel := fs.Int("parallel", 0, "with -experiment: worker goroutines for the matrix (0: one per CPU, 1: serial; output is identical at any count)")
	uncached := fs.Bool("uncached", false, "with -run: disable the NVM-side DRAM cache")
	fs.StringVar(&r.record, "record", "", "with -run: record the run's memory-op trace to FILE (TRACES.md)")
	fs.BoolVar(&r.hist, "hist", false, "with -record: capture the abstract op history into the trace (durable-linearizability checking on replay)")
	fs.StringVar(&r.trace, "trace", "", "with -run: write a Chrome trace_event JSON (chrome://tracing, Perfetto) to FILE")
	fs.BoolVar(&r.metrics, "metrics", false, "print the metrics-registry report")
	fs.BoolVar(&r.json, "json", false, "with -run: machine-readable registry export on stdout (implies -metrics)")
	fs.BoolVar(&r.perf, "perf", false, "with -run: attach the host-side phase profiler and print its report")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on ADDR (e.g. localhost:6060)")

	fs.IntVar(&kv.Tenants, "tenants", 4, "with -run kv: tenant (shard) count")
	fs.IntVar(&kv.KeysPerTenant, "keys", 0, "with -run kv: keys per tenant (0: size/tenants)")
	fs.StringVar(&kv.Skew, "skew", "zipfian", "with -run kv: key popularity, uniform|zipfian|hotspot")
	fs.IntVar(&kv.ThetaMilli, "theta", 990, "with -run kv -skew zipfian: theta in thousandths (1..999)")
	fs.IntVar(&kv.HotKeyPct, "hotkeypct", 10, "with -run kv -skew hotspot: hot fraction of the key space, percent")
	fs.IntVar(&kv.HotOpPct, "hotoppct", 90, "with -run kv -skew hotspot: request fraction sent to the hot keys, percent")
	fs.Func("mix", "with -run kv: op mix get,set,del,cas,scan in percent (default 50,30,5,10,5)",
		func(v string) error { return cli.SetMix(kv, v) })
	fs.IntVar(&kv.MinValWords, "minval", 1, "with -run kv: minimum value payload in 8-byte words")
	fs.IntVar(&kv.MaxValWords, "maxval", 8, "with -run kv: maximum value payload in 8-byte words")
	fs.IntVar(&kv.ScanLen, "scanlen", 8, "with -run kv and scans in the mix: maximum keys visited per scan")
	fs.Parse(args)

	var (
		mode  string
		reads []string
		exec  func() error
	)
	switch {
	case s.Structure != "":
		mode = "-run " + s.Structure
		reads = []string{"run", "mechanism", "threads", "cores", "ops", "size", "opwork", "seed", "uncached",
			"record", "trace", "metrics", "json", "perf", "pprof"}
		if r.record != "" {
			reads = append(reads, "hist")
		}
		if s.Structure != "queue" && s.Structure != "kv" {
			reads = append(reads, "readpct")
		}
		var err error
		if r.cfg, err = cli.Config(*mechanism, s.Threads, *cores, 16, *uncached); err != nil {
			return err
		}
		r.metrics = r.metrics || r.json
		if s.Structure == "kv" {
			if s.InitialSize == 0 {
				// Its warm-up sets half of every tenant's keys.
				return errors.New("-run kv cannot start empty: -size 0")
			}
			reads = append(reads, "tenants", "keys", "skew", "mix", "minval", "maxval")
			np := kv.Normalized(s.InitialSize)
			switch np.Skew {
			case "zipfian":
				reads = append(reads, "theta")
			case "hotspot":
				reads = append(reads, "hotkeypct", "hotoppct")
			}
			if np.ScanPct > 0 {
				reads = append(reads, "scanlen")
			}
		}
		exec = func() error { return runOne(r, stdout, stderr) }
	case *experiment != "":
		mode = "-experiment " + *experiment
		reads = []string{"experiment", "metrics", "pprof"}
		switch *experiment {
		case "config": // Table 1 is the fixed machine configuration
		case "size": // it sweeps its own scales
			reads = append(reads, "threads", "ops", "seed", "parallel")
		default:
			reads = append(reads, optFlags...)
		}
		if r.metrics {
			// The metrics report runs its own grid under the options.
			reads = append(reads, optFlags...)
		}
		// SeedSet: the flag default is explicit, so -seed 0 is honored.
		opts := lrp.ExperimentOpts{Threads: s.Threads, Ops: s.OpsPerThread, SizeScale: *scale,
			Seed: s.Seed, SeedSet: true, Parallel: *parallel}
		exec = func() error {
			err := runExperiment(*experiment, opts, stdout)
			if err == nil && r.metrics {
				var rep string
				if rep, err = lrp.MetricsReport(opts); err == nil {
					fmt.Fprintln(stdout, rep)
				}
			}
			return err
		}
	default:
		fs.Usage()
		return cli.ErrUsage
	}
	if err := cli.Reads(fs, mode, reads...); err != nil {
		return err
	}

	if *pprofAddr != "" {
		// Bind synchronously so a bad or in-use address fails the run
		// immediately instead of racing the simulation.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, nil)
		fmt.Fprintf(stderr, "lrpsim: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	return exec()
}

// experiments maps each -experiment name but all to its table.
var experiments = map[string]func(lrp.ExperimentOpts) (*lrp.Table, error){
	"config":           func(lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.Table1(), nil },
	"fig5":             lrp.Fig5,
	"fig6":             lrp.Fig6,
	"fig7":             lrp.Fig7,
	"fig8":             func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.Fig8(o) },
	"size":             func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.SizeSensitivity(o) },
	"ablation-ret":     func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.AblationRET(o) },
	"ablation-readmix": func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.AblationReadMix(o) },
	"faults":           lrp.FaultReport,
	"dlin":             lrp.DLinReport,
	"replay":           lrp.ReplayComparison,
	"kv":               lrp.KVGrid,
}

func runExperiment(name string, opts lrp.ExperimentOpts, stdout io.Writer) error {
	if name == "all" {
		out, err := lrp.ExperimentAll(opts)
		fmt.Fprint(stdout, out)
		return err
	}
	g, ok := experiments[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	t, err := g(opts)
	// Failed cells do not discard the completed ones: print whatever
	// rows survived, then report the per-cell failures.
	if t != nil && len(t.Rows) > 0 {
		fmt.Fprintln(stdout, t.Format())
	}
	return err
}

func runOne(r runSpec, stdout, stderr io.Writer) error {
	cfg, spec := r.cfg, r.spec
	if r.metrics || r.trace != "" || spec.Structure == "kv" {
		// kv always attaches one: its service metrics land in the registry.
		cfg.Obs = lrp.NewObserver(cfg, r.trace != "")
	}
	var prof *perf.Profiler
	if r.perf {
		// Labels tag pprof samples with lrp_phase/lrp_mech so a -pprof
		// profile taken during the run groups by simulator phase.
		prof = perf.New(perf.Options{Labels: true, Mech: cfg.Mechanism.String()})
		cfg.Perf = prof
	}
	// -json owns stdout: the status lines move to stderr.
	status := stdout
	if r.json {
		status = stderr
	}
	var res *lrp.Result
	var m *lrp.Machine
	var err error
	if r.record != "" {
		var sum lrp.TraceSummary
		err = writeFile(r.record, func(w io.Writer) (err error) {
			if r.hist {
				res, m, _, _, sum, err = lrp.RecordTraceHist(cfg, spec, w)
			} else {
				res, m, sum, err = lrp.RecordTrace(cfg, spec, w)
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(status, "trace recorded  %s (%d ops, %d bytes, checksum %08x)\n",
			r.record, sum.Ops, sum.WireBytes, sum.Checksum)
	} else if res, m, err = lrp.RunWorkload(cfg, spec); err != nil {
		return err
	}
	if reg := m.Observer().Registry(); reg != nil {
		if prof != nil {
			// Host-time gauges (host/<phase>_ns, host/<phase>_regions) join
			// the registry so -metrics and -json carry the phase breakdown.
			prof.PublishGauges(reg)
		}
		// Stamp-arena footprint (host/arena_*) rides along the same way.
		m.PublishArenaGauges(reg)
	}
	if !r.json {
		fmt.Fprintf(stdout, "workload        %s\n", spec.Structure)
		fmt.Fprintf(stdout, "mechanism       %s\n", cfg.Mechanism)
		fmt.Fprintf(stdout, "threads         %d\n", spec.Threads)
		fmt.Fprintf(stdout, "size            %d\n", spec.InitialSize)
		fmt.Fprintf(stdout, "exec time       %v\n", res.ExecTime)
		fmt.Fprintf(stdout, "operations      %d (%.1f cycles/op)\n", res.Ops, float64(res.ExecTime)*float64(spec.Threads)/float64(res.Ops))
		fmt.Fprintf(stdout, "memory ops      %d\n", res.Sys.Ops)
		fmt.Fprintf(stdout, "persists        %d (%.1f%% on the critical path)\n", res.Sys.Persists, res.CriticalWritebackPct())
		fmt.Fprintf(stdout, "writebacks      %d\n", res.Sys.Writebacks)
		fmt.Fprintf(stdout, "downgrades      %d (I2 blocks: %d)\n", res.Sys.Downgrades, res.Sys.I2Stalls)
		fmt.Fprintf(stdout, "stall cycles    %d\n", res.Sys.StallCycles)
		fmt.Fprintf(stdout, "NVM traffic     %d bytes persisted, %d line reads\n", res.NVM.BytesPersisted, res.NVM.Reads)
		if spec.Structure == "kv" {
			printKVService(stdout, m, spec.KV.Normalized(spec.InitialSize))
		}
		if prof != nil {
			fmt.Fprintf(stdout, "\n%s\n", prof.Report())
		}
	}
	if r.json {
		if err := lrp.WriteMetricsJSON(m, stdout); err != nil {
			return err
		}
	} else if r.metrics {
		fmt.Fprintf(stdout, "\n%s\n", lrp.MetricsSummary(m))
	}
	if r.trace != "" {
		if err := writeFile(r.trace, m.Observer().Tracer().WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(status, "trace written to %s (load in Perfetto or chrome://tracing)\n", r.trace)
	}
	return nil
}

// writeFile streams write's output into a new file at path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printKVService prints the kv service's shape and the service metrics
// its runner published to the obs registry.
func printKVService(w io.Writer, m *lrp.Machine, np lrp.KVParams) {
	fmt.Fprintf(w, "kv service      %d tenants x %d keys, %s skew, mix get%d/set%d/del%d/cas%d/scan%d\n",
		np.Tenants, np.KeysPerTenant, np.Skew,
		np.GetPct, np.SetPct, np.DelPct, np.CASPct, np.ScanPct)
	reg := m.Observer().Registry()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "service metrics (measured window, simulated cycles):")
	total := float64(0) // every request counts once per op and once per tenant
	for _, op := range []string{"get", "set", "del", "cas", "scan"} {
		n := reg.SumCounters("kv/ops/" + op)
		total += float64(n)
		if n == 0 {
			continue
		}
		miss := reg.SumCounters("kv/miss/" + op)
		lat := reg.MergeHistograms("kv/lat/" + op)
		fmt.Fprintf(w, "  %-5s %7d ops  %5.1f%% miss  lat p50=%-6d p99=%-6d mean=%.0f\n",
			op, n, 100*float64(miss)/float64(n),
			lat.Quantile(0.5), lat.Quantile(0.99), lat.Mean())
	}
	fmt.Fprintf(w, "  scan keys read  %d\n", reg.SumCounters("kv/scan/keys"))
	var loads []string
	for t := 0; t < np.Tenants; t++ {
		n := reg.SumCounters(fmt.Sprintf("kv/tenant%d/ops", t))
		loads = append(loads, fmt.Sprintf("t%d=%.1f%%", t, 100*float64(n)/total))
	}
	fmt.Fprintf(w, "  tenant load     %s\n", strings.Join(loads, " "))
}
