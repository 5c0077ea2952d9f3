package lrp

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§6). Each BenchmarkFigN family runs the same
// workloads the corresponding figure reports and emits the figure's
// metric via b.ReportMetric:
//
//	Figure 5 → <mech>_x        execution time normalized to NOP (cached)
//	Figure 6 → <mech>_critpct  % of write-backs on the critical path
//	Figure 7 → <mech>_x        normalized execution time (uncached)
//	Figure 8 → <mech>_ovpct_tN % overhead over NOP at N threads
//	§6.4     → size sensitivity, RET-watermark and read-mix ablations
//
// Scales are reduced relative to cmd/lrpsim's defaults so `go test
// -bench=.` completes in minutes; EXPERIMENTS.md records full-scale runs.

import (
	"fmt"
	"testing"

	"lrp/internal/perf"
)

// benchSizes mirror the experiment defaults at quarter scale.
var benchSizes = map[string]int{
	"linkedlist": 128,
	"hashmap":    4096,
	"bstree":     2048,
	"skiplist":   2048,
	"queue":      512,
}

const (
	benchThreads = 8
	benchOps     = 60
	benchSeed    = 7
)

func benchRun(b *testing.B, structure string, mech Mechanism, threads int, uncached bool) *Result {
	b.Helper()
	cfg := DefaultConfig().WithMechanism(mech)
	cfg.Cores = threads
	if cfg.Cores < 8 {
		cfg.Cores = 8
	}
	if uncached {
		cfg.NVM.Mode = 1
	}
	res, _, err := RunWorkload(cfg, Spec{
		Structure:    structure,
		Threads:      threads,
		InitialSize:  benchSizes[structure],
		OpsPerThread: benchOps,
		Seed:         benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchNormalized is the Figure 5/7 shape: normalized execution time per
// mechanism for one structure.
func benchNormalized(b *testing.B, structure string, uncached bool) {
	var results map[Mechanism]*Result
	for i := 0; i < b.N; i++ {
		results = map[Mechanism]*Result{}
		for _, mech := range []Mechanism{NOP, SB, BB, LRP} {
			results[mech] = benchRun(b, structure, mech, benchThreads, uncached)
		}
	}
	base := float64(results[NOP].ExecTime)
	for _, mech := range []Mechanism{SB, BB, LRP} {
		b.ReportMetric(float64(results[mech].ExecTime)/base, mech.String()+"_x")
	}
	b.ReportMetric(float64(results[LRP].ExecTime), "lrp_cycles")
}

func BenchmarkFig5Linkedlist(b *testing.B) { benchNormalized(b, "linkedlist", false) }
func BenchmarkFig5Hashmap(b *testing.B)    { benchNormalized(b, "hashmap", false) }
func BenchmarkFig5Bstree(b *testing.B)     { benchNormalized(b, "bstree", false) }
func BenchmarkFig5Skiplist(b *testing.B)   { benchNormalized(b, "skiplist", false) }
func BenchmarkFig5Queue(b *testing.B)      { benchNormalized(b, "queue", false) }

// benchCritical is the Figure 6 shape: % write-backs on the critical
// path, BB vs LRP.
func benchCritical(b *testing.B, structure string) {
	var bb, lrp *Result
	for i := 0; i < b.N; i++ {
		bb = benchRun(b, structure, BB, benchThreads, false)
		lrp = benchRun(b, structure, LRP, benchThreads, false)
	}
	b.ReportMetric(bb.CriticalWritebackPct(), "BB_critpct")
	b.ReportMetric(lrp.CriticalWritebackPct(), "LRP_critpct")
}

func BenchmarkFig6Linkedlist(b *testing.B) { benchCritical(b, "linkedlist") }
func BenchmarkFig6Hashmap(b *testing.B)    { benchCritical(b, "hashmap") }
func BenchmarkFig6Bstree(b *testing.B)     { benchCritical(b, "bstree") }
func BenchmarkFig6Skiplist(b *testing.B)   { benchCritical(b, "skiplist") }
func BenchmarkFig6Queue(b *testing.B)      { benchCritical(b, "queue") }

func BenchmarkFig7Linkedlist(b *testing.B) { benchNormalized(b, "linkedlist", true) }
func BenchmarkFig7Hashmap(b *testing.B)    { benchNormalized(b, "hashmap", true) }
func BenchmarkFig7Bstree(b *testing.B)     { benchNormalized(b, "bstree", true) }
func BenchmarkFig7Skiplist(b *testing.B)   { benchNormalized(b, "skiplist", true) }
func BenchmarkFig7Queue(b *testing.B)      { benchNormalized(b, "queue", true) }

// benchThreadSweep is the Figure 8 shape: persistency overhead over NOP
// as the worker count varies.
func benchThreadSweep(b *testing.B, structure string) {
	counts := []int{2, 8}
	type row struct{ bb, lrp float64 }
	var rows map[int]row
	for i := 0; i < b.N; i++ {
		rows = map[int]row{}
		for _, n := range counts {
			nop := benchRun(b, structure, NOP, n, false)
			bb := benchRun(b, structure, BB, n, false)
			lrp := benchRun(b, structure, LRP, n, false)
			base := float64(nop.ExecTime)
			rows[n] = row{
				bb:  100 * (float64(bb.ExecTime) - base) / base,
				lrp: 100 * (float64(lrp.ExecTime) - base) / base,
			}
		}
	}
	for _, n := range counts {
		b.ReportMetric(rows[n].bb, fmt.Sprintf("BB_ovpct_t%d", n))
		b.ReportMetric(rows[n].lrp, fmt.Sprintf("LRP_ovpct_t%d", n))
	}
}

func BenchmarkFig8Linkedlist(b *testing.B) { benchThreadSweep(b, "linkedlist") }
func BenchmarkFig8Hashmap(b *testing.B)    { benchThreadSweep(b, "hashmap") }
func BenchmarkFig8Bstree(b *testing.B)     { benchThreadSweep(b, "bstree") }
func BenchmarkFig8Skiplist(b *testing.B)   { benchThreadSweep(b, "skiplist") }
func BenchmarkFig8Queue(b *testing.B)      { benchThreadSweep(b, "queue") }

// BenchmarkSizeSensitivity reproduces §6.4's size study on the hashmap:
// the LRP overhead stays roughly flat across structure sizes.
func BenchmarkSizeSensitivity(b *testing.B) {
	sizes := []int{1024, 4096, 16384}
	var ov map[int]float64
	for i := 0; i < b.N; i++ {
		ov = map[int]float64{}
		for _, size := range sizes {
			run := func(mech Mechanism) *Result {
				cfg := DefaultConfig().WithMechanism(mech)
				cfg.Cores = benchThreads
				res, _, err := RunWorkload(cfg, Spec{
					Structure: "hashmap", Threads: benchThreads,
					InitialSize: size, OpsPerThread: benchOps, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			nop, lrp := run(NOP), run(LRP)
			ov[size] = 100 * (float64(lrp.ExecTime) - float64(nop.ExecTime)) / float64(nop.ExecTime)
		}
	}
	for _, size := range sizes {
		b.ReportMetric(ov[size], fmt.Sprintf("LRP_ovpct_s%d", size))
	}
}

// BenchmarkAblationRETWatermark sweeps the RET drain watermark, the
// implementation knob DESIGN.md calls out.
func BenchmarkAblationRETWatermark(b *testing.B) {
	marks := []int{2, 8, 28}
	var times map[int]float64
	for i := 0; i < b.N; i++ {
		times = map[int]float64{}
		for _, w := range marks {
			cfg := DefaultConfig().WithMechanism(LRP)
			cfg.Cores = benchThreads
			cfg.RETWatermark = w
			res, _, err := RunWorkload(cfg, Spec{
				Structure: "hashmap", Threads: benchThreads,
				InitialSize: benchSizes["hashmap"], OpsPerThread: benchOps, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			times[w] = float64(res.ExecTime)
		}
	}
	for _, w := range marks {
		b.ReportMetric(times[w], fmt.Sprintf("cycles_w%d", w))
	}
}

// BenchmarkAblationReadMix reproduces the read-intensity observation:
// the LRP-vs-BB gap narrows as the mix turns read-heavy.
func BenchmarkAblationReadMix(b *testing.B) {
	mixes := []int{0, 90}
	var gap map[int]float64
	for i := 0; i < b.N; i++ {
		gap = map[int]float64{}
		for _, rp := range mixes {
			run := func(mech Mechanism) *Result {
				cfg := DefaultConfig().WithMechanism(mech)
				cfg.Cores = benchThreads
				res, _, err := RunWorkload(cfg, Spec{
					Structure: "skiplist", Threads: benchThreads,
					InitialSize: benchSizes["skiplist"], OpsPerThread: benchOps,
					ReadPct: rp, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			bb, lrp := run(BB), run(LRP)
			gap[rp] = 100 * (float64(bb.ExecTime) - float64(lrp.ExecTime)) / float64(bb.ExecTime)
		}
	}
	for _, rp := range mixes {
		b.ReportMetric(gap[rp], fmt.Sprintf("LRPgain_pct_r%d", rp))
	}
}

// benchObserver runs the hashmap/LRP workload with an Observer built by
// mk (nil leaves Config.Obs unset). The three variants below are the
// observability cost guard: compare ObserverOff against the others with
// benchstat. ObserverOff must stay within noise of the pre-observability
// seed — every hook is nil-checked, so a machine without an Observer
// does no metrics work at all.
func benchObserver(b *testing.B, mk func(Config) *Observer) {
	base := DefaultConfig().WithMechanism(LRP)
	base.Cores = benchThreads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		if mk != nil {
			cfg.Obs = mk(cfg)
		}
		_, _, err := RunWorkload(cfg, Spec{
			Structure: "hashmap", Threads: benchThreads,
			InitialSize: benchSizes["hashmap"], OpsPerThread: benchOps, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObserverOff(b *testing.B) { benchObserver(b, nil) }
func BenchmarkObserverMetrics(b *testing.B) {
	benchObserver(b, func(cfg Config) *Observer { return NewObserver(cfg, false) })
}
func BenchmarkObserverTrace(b *testing.B) {
	benchObserver(b, func(cfg Config) *Observer { return NewObserver(cfg, true) })
}

// TestObserverTimingNeutral pins the observability contract stated in
// internal/obs: attaching an Observer reads virtual time but never
// advances it, so the simulated run is bit-identical with and without
// one — same execution time, same machine counters. The same contract
// covers the host-side phase profiler (internal/perf): its regions read
// host clocks only, so a profiled run is also bit-identical.
func TestObserverTimingNeutral(t *testing.T) {
	run := func(mk func(Config) *Observer, prof bool) *Result {
		cfg := DefaultConfig().WithMechanism(LRP)
		cfg.Cores = 8
		if mk != nil {
			cfg.Obs = mk(cfg)
		}
		if prof {
			cfg.Perf = perf.New(perf.Options{})
		}
		res, _, err := RunWorkload(cfg, Spec{
			Structure: "hashmap", Threads: 8,
			InitialSize: 1024, OpsPerThread: 40, Seed: benchSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil, false)
	metrics := run(func(cfg Config) *Observer { return NewObserver(cfg, false) }, false)
	traced := run(func(cfg Config) *Observer { return NewObserver(cfg, true) }, false)
	profiled := run(nil, true)
	both := run(func(cfg Config) *Observer { return NewObserver(cfg, false) }, true)
	for name, got := range map[string]*Result{
		"metrics": metrics, "trace": traced, "perf": profiled, "perf+metrics": both,
	} {
		if got.ExecTime != bare.ExecTime {
			t.Errorf("%s observer changed simulated time: %d != %d", name, got.ExecTime, bare.ExecTime)
		}
		if got.Sys != bare.Sys {
			t.Errorf("%s observer changed machine counters:\n  with    %+v\n  without %+v", name, got.Sys, bare.Sys)
		}
		if got.NVM != bare.NVM {
			t.Errorf("%s observer changed NVM counters:\n  with    %+v\n  without %+v", name, got.NVM, bare.NVM)
		}
	}
}

// BenchmarkSimulatorThroughput measures the raw simulation speed: host
// nanoseconds per simulated memory operation.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultConfig().WithMechanism(LRP)
	cfg.Cores = benchThreads
	var ops uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := RunWorkload(cfg, Spec{
			Structure: "hashmap", Threads: benchThreads,
			InitialSize: 2048, OpsPerThread: 50, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Sys.Ops
	}
	b.ReportMetric(float64(ops)/float64(b.N), "simops/run")
}

// BenchmarkCrashCheck measures the consistent-cut checker itself.
func BenchmarkCrashCheck(b *testing.B) {
	cfg := DefaultConfig().WithMechanism(LRP)
	cfg.Cores = 4
	cfg.TrackHB = true
	_, m, err := RunWorkload(cfg, Spec{
		Structure: "hashmap", Threads: 4, InitialSize: 512, OpsPerThread: 60, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	end := m.Time()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Crash(m, end*Time(i%100)/100)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ConsistentCut() {
			b.Fatal("unexpected violation")
		}
	}
}

// BenchmarkSweepCrashKV times the exhaustive crash sweep the way the
// end-to-end sweep-kv workload runs it: one kv run per mechanism (LRP,
// ARP, eADR; 4 threads, 16 cores, 512 keys, 100 ops per thread), swept
// serially with a recovery walk and a durable-linearizability check at
// every boundary. The runs are set up outside the timer.
func BenchmarkSweepCrashKV(b *testing.B) {
	type run struct {
		m    *Machine
		rec  Recoverable
		hist *OpHistory
	}
	var runs []run
	for _, mech := range []Mechanism{LRP, ARP, EADR} {
		cfg := DefaultConfig().WithMechanism(mech)
		cfg.Cores = 16
		cfg.TrackHB = true
		_, m, rec, h, err := RunRecoverableWorkloadHist(cfg, Spec{
			Structure: "kv", Threads: 4, InitialSize: 512, OpsPerThread: 100, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, run{m, rec, h})
	}
	bounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			rep, err := SweepCrash(r.m, SweepOpts{Rec: r.rec, Hist: r.hist, Workers: 1, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			bounds += rep.Boundaries
		}
	}
	b.ReportMetric(float64(bounds)/b.Elapsed().Seconds(), "boundaries/s")
}

// BenchmarkSweepCrashARPSkiplist times a lossy exhaustive crash sweep:
// ARP on the skip list at 32 threads (as many cores), 1024 keys and 100
// ops per thread, swept serially with a recovery walk and a
// durable-linearizability check at every boundary, as `lrpcheck
// -mechanism ARP -structure skiplist -threads 32 -size 1024 -ops 100
// -dlin -parallel 1` does. ARP's recoveries miss many durable keys, so
// the checks here pay for lost keys where sweep-kv's barely do. The run
// is set up outside the timer; the metric is host time per boundary.
func BenchmarkSweepCrashARPSkiplist(b *testing.B) {
	cfg := DefaultConfig().WithMechanism(ARP)
	cfg.Cores = 32
	cfg.TrackHB = true
	_, m, rec, h, err := RunRecoverableWorkloadHist(cfg, Spec{
		Structure: "skiplist", Threads: 32, InitialSize: 1024, OpsPerThread: 100, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	bounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Workers: 1, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if rep.DLinBad == 0 {
			b.Fatal("ARP sweep found no durable-linearizability violation")
		}
		bounds += rep.Boundaries
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bounds), "ns/boundary")
}
