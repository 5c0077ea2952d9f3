// Command lrpsim regenerates the paper's tables and figures on the
// simulated machine.
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
// mechanism comparison, TRACES.md), all.
//
// A single workload can also be run directly:
//
//	lrpsim -run hashmap -mechanism LRP -threads 16 -size 16384 -ops 100
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
//
// Observability:
//
//	-metrics        print the metrics-registry report after the run or
//	                the experiment
//	-json           with -run: the registry as machine-readable JSON
//	                (lrpmetrics/v1, deterministic key order) on stdout
//	-perf           with -run: attach the host-side phase profiler and
//	                print the per-phase host-time report (the host/*
//	                gauges also land in the -metrics registry)
//	-trace FILE     with -run: write a Chrome trace_event JSON
//	                (Perfetto-loadable)
//	-pprof ADDR     serve net/http/pprof while the simulation runs
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"lrp"
	"lrp/internal/perf"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run: config|fig5|fig6|fig7|fig8|size|ablation-ret|ablation-readmix|faults|dlin|replay|kv|all")
		run        = flag.String("run", "", "run a single workload: "+strings.Join(lrp.WorkloadNames(), "|"))
		mechanism  = flag.String("mechanism", "LRP", "mechanism for -run: "+strings.Join(lrp.MechanismNames(), "|"))
		threads    = flag.Int("threads", 16, "worker threads")
		cores      = flag.Int("cores", 0, "with -run: simulated cores (0: max(threads, 16))")
		ops        = flag.Int("ops", 100, "operations per thread in the measured window")
		size       = flag.Int("size", 0, "initial structure size for -run (0 = experiment default)")
		scale      = flag.Float64("scale", 1.0, "size scale factor for experiments")
		seed       = flag.Uint64("seed", 7, "deterministic seed")
		parallel   = flag.Int("parallel", 0, "worker goroutines for the experiment matrix (0: one per CPU, 1: serial; output is identical at any count)")
		uncached   = flag.Bool("uncached", false, "disable the NVM-side DRAM cache for -run")
		recordPath = flag.String("record", "", "with -run: record the run's memory-op trace to FILE (TRACES.md)")
		tracePath  = flag.String("trace", "", "with -run: write a Chrome trace_event JSON (chrome://tracing, Perfetto) to FILE")
		metrics    = flag.Bool("metrics", false, "print the metrics-registry report")
		jsonOut    = flag.Bool("json", false, "with -run: machine-readable registry export on stdout (implies -metrics)")
		perfOn     = flag.Bool("perf", false, "with -run: attach the host-side phase profiler and print its report")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on ADDR (e.g. localhost:6060)")

		tenants = flag.Int("tenants", 4, "tenant (shard) count")
		keys    = flag.Int("keys", 0, "keys per tenant (0: size/tenants)")
		skew    = flag.String("skew", "zipfian", "key popularity: uniform|zipfian|hotspot")
		theta   = flag.Int("theta", 990, "zipfian theta in thousandths (1..999)")
		hotKey  = flag.Int("hotkeypct", 10, "hotspot: hot fraction of the key space, percent")
		hotOp   = flag.Int("hotoppct", 90, "hotspot: request fraction sent to the hot keys, percent")
		mix     = flag.String("mix", "", "op mix get,set,del,cas,scan in percent (default 50,30,5,10,5)")
		minVal  = flag.Int("minval", 1, "minimum value payload in 8-byte words")
		maxVal  = flag.Int("maxval", 8, "maximum value payload in 8-byte words")
		scanLen = flag.Int("scanlen", 8, "maximum keys visited per scan")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// Bind synchronously so a bad or in-use address fails the run
		// immediately instead of racing the simulation (the old async
		// ListenAndServe could lose the error entirely on short runs).
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(fmt.Errorf("pprof: %w", err))
		}
		go http.Serve(ln, nil)
		fmt.Fprintf(os.Stderr, "lrpsim: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	if *jsonOut {
		*metrics = true // -json is the machine-readable form of -metrics
	}

	opts := lrp.ExperimentOpts{
		Threads:   *threads,
		Ops:       *ops,
		SizeScale: *scale,
		Seed:      *seed,
		SeedSet:   true, // the flag default is explicit, so -seed 0 is honored
		Parallel:  *parallel,
	}

	switch {
	case *run != "":
		kv := lrp.KVParams{
			Tenants: *tenants, KeysPerTenant: *keys, Skew: *skew, ThetaMilli: *theta,
			HotKeyPct: *hotKey, HotOpPct: *hotOp,
			MinValWords: *minVal, MaxValWords: *maxVal, ScanLen: *scanLen,
		}
		if *mix != "" {
			var err error
			if kv.GetPct, kv.SetPct, kv.DelPct, kv.CASPct, kv.ScanPct, err = parseMix(*mix); err != nil {
				fail(err)
			}
		}
		if err := runOne(*run, *mechanism, *threads, *cores, *ops, *size, *seed, kv, *uncached, *tracePath, *recordPath, *metrics, *jsonOut, *perfOn); err != nil {
			fail(err)
		}
	case *experiment != "":
		if *jsonOut || *tracePath != "" {
			fail(fmt.Errorf("-json and -trace capture one machine; use them with -run"))
		}
		if err := runExperiment(*experiment, opts); err != nil {
			fail(err)
		}
		if *metrics {
			rep, err := lrp.MetricsReport(opts)
			if err != nil {
				fail(err)
			}
			fmt.Println(rep)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lrpsim:", err)
	os.Exit(1)
}

func runExperiment(name string, opts lrp.ExperimentOpts) error {
	type gen func(lrp.ExperimentOpts) (*lrp.Table, error)
	table := func(g gen) error {
		t, err := g(opts)
		// Failed cells no longer discard the completed ones: print
		// whatever rows survived, then report the per-cell failures.
		if t != nil && len(t.Rows) > 0 {
			fmt.Println(t.Format())
		}
		return err
	}
	switch name {
	case "config":
		fmt.Println(lrp.Table1().Format())
		return nil
	case "fig5":
		return table(lrp.Fig5)
	case "fig6":
		return table(lrp.Fig6)
	case "fig7":
		return table(lrp.Fig7)
	case "fig8":
		return table(func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.Fig8(o) })
	case "size":
		return table(func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.SizeSensitivity(o) })
	case "ablation-ret":
		return table(func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.AblationRET(o) })
	case "ablation-readmix":
		return table(func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.AblationReadMix(o) })
	case "faults":
		return table(func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.FaultReport(o) })
	case "dlin":
		return table(func(o lrp.ExperimentOpts) (*lrp.Table, error) { return lrp.DLinReport(o) })
	case "replay":
		return table(lrp.ReplayComparison)
	case "kv":
		return table(lrp.KVGrid)
	case "all":
		out, err := lrp.ExperimentAll(opts)
		fmt.Print(out)
		return err
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func parseMix(s string) (g, st, d, ca, sc int, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 5 {
		return 0, 0, 0, 0, 0, fmt.Errorf("-mix wants 5 comma-separated percentages, got %q", s)
	}
	vals := make([]int, 5)
	for i, p := range parts {
		if vals[i], err = strconv.Atoi(strings.TrimSpace(p)); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("-mix: %w", err)
		}
	}
	return vals[0], vals[1], vals[2], vals[3], vals[4], nil
}

func runOne(structure, mechName string, threads, cores, ops, size int, seed uint64, kv lrp.KVParams, uncached bool, tracePath, recordPath string, metrics, jsonOut, perfOn bool) error {
	k, err := lrp.ParseMechanism(mechName)
	if err != nil {
		return err
	}
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = threads
	if cfg.Cores < 16 {
		cfg.Cores = 16
	}
	if cores > 0 {
		if cores < threads {
			return fmt.Errorf("-cores %d is fewer than -threads %d", cores, threads)
		}
		cfg.Cores = cores
	}
	if uncached {
		cfg.NVM.Mode = 1
	}
	if size == 0 {
		size = 4096
	}
	if metrics || tracePath != "" || structure == "kv" {
		// kv always attaches one: its service metrics land in the registry.
		cfg.Obs = lrp.NewObserver(cfg, tracePath != "")
	}
	var prof *perf.Profiler
	if perfOn {
		// Labels tag pprof samples with lrp_phase/lrp_mech so a -pprof
		// profile taken during the run groups by simulator phase.
		prof = perf.New(perf.Options{Labels: true, Mech: k.String()})
		cfg.Perf = prof
	}
	spec := lrp.Spec{
		Structure:    structure,
		Threads:      threads,
		InitialSize:  size,
		OpsPerThread: ops,
		Seed:         seed,
	}
	if structure == "kv" {
		spec.KV = kv
	}
	var res *lrp.Result
	var m *lrp.Machine
	if recordPath != "" {
		tf, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		var sum lrp.TraceSummary
		res, m, sum, err = lrp.RecordTrace(cfg, spec, tf)
		if err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		fmt.Printf("trace recorded  %s (%d ops, %d bytes, checksum %08x)\n",
			recordPath, sum.Ops, sum.WireBytes, sum.Checksum)
	} else {
		res, m, err = lrp.RunWorkload(cfg, spec)
		if err != nil {
			return err
		}
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
	if !jsonOut {
		fmt.Printf("workload        %s\n", structure)
		fmt.Printf("mechanism       %s\n", k)
		fmt.Printf("threads         %d\n", threads)
		fmt.Printf("size            %d\n", size)
		fmt.Printf("exec time       %v\n", res.ExecTime)
		fmt.Printf("operations      %d (%.1f cycles/op)\n", res.Ops, float64(res.ExecTime)*float64(threads)/float64(res.Ops))
		fmt.Printf("memory ops      %d\n", res.Sys.Ops)
		fmt.Printf("persists        %d (%.1f%% on the critical path)\n", res.Sys.Persists, res.CriticalWritebackPct())
		fmt.Printf("writebacks      %d\n", res.Sys.Writebacks)
		fmt.Printf("downgrades      %d (I2 blocks: %d)\n", res.Sys.Downgrades, res.Sys.I2Stalls)
		fmt.Printf("stall cycles    %d\n", res.Sys.StallCycles)
		fmt.Printf("NVM traffic     %d bytes persisted, %d line reads\n", res.NVM.BytesPersisted, res.NVM.Reads)
		if structure == "kv" {
			printKVService(m, spec.KV.Normalized(size))
		}
		if prof != nil {
			fmt.Println()
			fmt.Println(prof.Report())
		}
	}
	if metrics {
		if jsonOut {
			if err := lrp.WriteMetricsJSON(m, os.Stdout); err != nil {
				return err
			}
		} else {
			fmt.Println()
			fmt.Println(lrp.MetricsSummary(m))
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := m.Observer().Tracer().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in Perfetto or chrome://tracing)\n", tracePath)
	}
	return nil
}

// printKVService prints the kv service's shape and the service metrics
// its runner published to the obs registry.
func printKVService(m *lrp.Machine, np lrp.KVParams) {
	fmt.Printf("kv service      %d tenants x %d keys, %s skew, mix get%d/set%d/del%d/cas%d/scan%d\n",
		np.Tenants, np.KeysPerTenant, np.Skew,
		np.GetPct, np.SetPct, np.DelPct, np.CASPct, np.ScanPct)
	reg := m.Observer().Registry()
	fmt.Println()
	fmt.Println("service metrics (measured window, simulated cycles):")
	for _, op := range []string{"get", "set", "del", "cas", "scan"} {
		n := reg.SumCounters("kv/ops/" + op)
		if n == 0 {
			continue
		}
		miss := reg.SumCounters("kv/miss/" + op)
		lat := reg.MergeHistograms("kv/lat/" + op)
		fmt.Printf("  %-5s %7d ops  %5.1f%% miss  lat p50=%-6d p99=%-6d mean=%.0f\n",
			op, n, 100*float64(miss)/float64(n),
			lat.Quantile(0.5), lat.Quantile(0.99), lat.Mean())
	}
	fmt.Printf("  scan keys read  %d\n", reg.SumCounters("kv/scan/keys"))
	var loads []string
	total := float64(0)
	for t := 0; t < np.Tenants; t++ {
		total += float64(reg.SumCounters(fmt.Sprintf("kv/tenant%d/ops", t)))
	}
	for t := 0; t < np.Tenants; t++ {
		n := reg.SumCounters(fmt.Sprintf("kv/tenant%d/ops", t))
		loads = append(loads, fmt.Sprintf("t%d=%.1f%%", t, 100*float64(n)/total))
	}
	fmt.Printf("  tenant load     %s\n", strings.Join(loads, " "))
}
