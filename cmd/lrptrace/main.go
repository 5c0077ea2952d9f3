// Command lrptrace records, replays, inspects and compares memory-op
// traces (see TRACES.md for the format and methodology).
//
// Usage:
//
//	lrptrace record -o FILE [-structure hashmap] [-mechanism NOP] [-threads 4]
//	                [-cores N] [-size 96] [-ops 25] [-readpct 0] [-opwork 0]
//	                [-seed 7] [-uncached] [-hist]
//	lrptrace replay FILE [-mechanism K | -all] [-verify] [-o FILE] [-metrics]
//	lrptrace info FILE
//	lrptrace diff FILE1 FILE2
//
// replay drives a fresh machine from the recorded op stream — under the
// recorded mechanism by default, under -mechanism K to re-time the same
// execution under another mechanism, or under -all for the five-way
// comparison table. -verify additionally checks the replay reproduced
// the recording's embedded window counters byte-for-byte (recorded
// mechanism only). -o re-records the replayed execution into a new
// trace, whose op-stream checksum always equals the source's.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lrp"
	"lrp/internal/stats"
	"lrp/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lrptrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lrptrace record -o FILE [-structure S] [-mechanism K] [-threads N] [-cores N]
                  [-size N] [-ops N] [-readpct P] [-opwork C] [-seed N] [-uncached] [-hist]
  lrptrace replay FILE [-mechanism K | -all] [-verify] [-o FILE] [-metrics]
  lrptrace info FILE
  lrptrace diff FILE1 FILE2`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out       = fs.String("o", "", "output trace file (required)")
		structure = fs.String("structure", "hashmap", "workload structure: "+strings.Join(lrp.WorkloadNames(), "|"))
		mechName  = fs.String("mechanism", "NOP", "mechanism to record under")
		threads   = fs.Int("threads", 4, "worker threads")
		cores     = fs.Int("cores", 0, "machine cores (0: max(threads, 16))")
		size      = fs.Int("size", 96, "initial structure size")
		ops       = fs.Int("ops", 25, "operations per thread")
		readPct   = fs.Int("readpct", 0, "lookup percentage in the measured mix")
		opWork    = fs.Int("opwork", 0, "compute cycles per operation (0: default)")
		seed      = fs.Uint64("seed", 7, "deterministic seed")
		uncached  = fs.Bool("uncached", false, "disable the NVM-side DRAM cache")
		hist      = fs.Bool("hist", false, "capture the abstract op history into the trace (durable-linearizability checking on replay)")
	)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o FILE is required")
	}
	k, err := lrp.ParseMechanism(*mechName)
	if err != nil {
		return err
	}
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = *cores
	if cfg.Cores == 0 {
		cfg.Cores = *threads
		if cfg.Cores < 16 {
			cfg.Cores = 16
		}
	}
	if *uncached {
		cfg.NVM.Mode = 1
	}
	spec := lrp.Spec{
		Structure:    *structure,
		Threads:      *threads,
		InitialSize:  *size,
		OpsPerThread: *ops,
		ReadPct:      *readPct,
		OpWork:       *opWork,
		Seed:         *seed,
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	var res *lrp.Result
	var sum lrp.TraceSummary
	if *hist {
		var h *lrp.OpHistory
		res, _, _, h, sum, err = lrp.RecordTraceHist(cfg, spec, f)
		if err == nil {
			fmt.Printf("op history      %d operations captured\n", len(h.Ops))
		}
	} else {
		res, _, sum, err = lrp.RecordTrace(cfg, spec, f)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded        %s under %s (threads=%d size=%d ops/thread=%d seed=%d)\n",
		*structure, k, *threads, *size, *ops, *seed)
	fmt.Printf("exec time       %v\n", res.ExecTime)
	fmt.Printf("trace ops       %d (%d records)\n", sum.Ops, sum.Records)
	fmt.Printf("trace size      %d bytes (%d raw, %.1fx compression)\n",
		sum.WireBytes, sum.RawBytes, float64(sum.RawBytes)/float64(sum.WireBytes))
	fmt.Printf("checksum        %08x\n", sum.Checksum)
	fmt.Printf("written to      %s\n", *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		mechName = fs.String("mechanism", "", "replay under this mechanism (default: as recorded)")
		all      = fs.Bool("all", false, "replay under all five mechanisms and tabulate")
		verify   = fs.Bool("verify", false, "verify the replay reproduces the embedded live window byte-for-byte")
		out      = fs.String("o", "", "re-record the replayed execution to FILE")
		metrics  = fs.Bool("metrics", false, "print the replay machine's metrics registry")
	)
	if len(args) < 1 || len(args[0]) > 0 && args[0][0] == '-' {
		return fmt.Errorf("replay: usage: lrptrace replay FILE [flags]")
	}
	path := args[0]
	fs.Parse(args[1:])
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if *all {
		if *mechName != "" {
			return fmt.Errorf("replay: -all and -mechanism are mutually exclusive")
		}
		return replayAll(raw, *verify)
	}

	var k lrp.Mechanism
	set := false
	if *mechName != "" {
		if k, err = lrp.ParseMechanism(*mechName); err != nil {
			return err
		}
		set = true
	}
	o := lrp.ReplayOpts{Mechanism: k, MechanismSet: set}
	if *metrics {
		in, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		o.Obs = lrp.NewObserver(in.Header().MachineConfig(k), false, 0)
	}
	var re bytes.Buffer
	var rp *lrp.Replayed
	if *out != "" {
		rp, err = trace.Rerecord(raw, o, &re)
	} else {
		rp, err = lrp.ReplayTrace(bytes.NewReader(raw), o)
	}
	if err != nil {
		return err
	}
	fmt.Printf("replayed        %s under %s (recorded under %s)\n",
		rp.Header.Spec.Structure, rp.Mechanism, rp.Header.Mechanism)
	fmt.Printf("trace ops       %d (checksum %08x, verified)\n", rp.Ops, rp.Checksum)
	if rp.Result != nil {
		fmt.Printf("exec time       %v\n", rp.Result.ExecTime)
		fmt.Printf("persists        %d (%.1f%% on the critical path)\n",
			rp.Result.Sys.Persists, rp.Result.CriticalWritebackPct())
		fmt.Printf("stall cycles    %d\n", rp.Result.Sys.StallCycles)
	}
	if *verify {
		if rp.Mechanism != rp.Header.Mechanism {
			return fmt.Errorf("replay: -verify requires replaying under the recorded mechanism (%s)", rp.Header.Mechanism)
		}
		if err := rp.VerifyEmbedded(); err != nil {
			return err
		}
		fmt.Println("verify          replay reproduces the recorded window byte-for-byte")
	}
	if *out != "" {
		if err := os.WriteFile(*out, re.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("re-recorded     %s (checksum %08x, matches source)\n", *out, rp.Checksum)
	}
	if *metrics {
		fmt.Println()
		fmt.Println(lrp.MetricsSummary(rp.Sys))
	}
	return nil
}

// replayAll replays one trace under every mechanism and tabulates the
// per-mechanism execution time; each replay is re-recorded in memory and
// its op-stream checksum asserted against the source.
func replayAll(raw []byte, verify bool) error {
	t := stats.NewTable("Replay: one trace under every mechanism",
		"mechanism", "exec time", "vs NOP", "persists", "crit%", "stalls", "checksum")
	var base float64
	for _, k := range lrp.Mechanisms() {
		rp, err := trace.Rerecord(raw, lrp.ReplayOpts{Mechanism: k, MechanismSet: true}, io.Discard)
		if err != nil {
			return fmt.Errorf("under %s: %w", k, err)
		}
		if rp.Result == nil {
			return fmt.Errorf("under %s: trace has no measured window", k)
		}
		if verify && k == rp.Header.Mechanism {
			if err := rp.VerifyEmbedded(); err != nil {
				return err
			}
		}
		if k == lrp.NOP {
			base = float64(rp.Result.ExecTime)
		}
		t.AddRow(k.String(),
			fmt.Sprintf("%d", rp.Result.ExecTime),
			stats.Ratio(float64(rp.Result.ExecTime)/base),
			stats.Count(rp.Result.Sys.Persists),
			stats.Pct(rp.Result.CriticalWritebackPct()),
			stats.Count(rp.Result.Sys.StallCycles),
			fmt.Sprintf("%08x", rp.Checksum))
	}
	t.AddNote("identical op stream per row: every replay re-recorded and checksummed against the source")
	if verify {
		t.AddNote("recorded-mechanism replay verified byte-for-byte against the embedded live window")
	}
	fmt.Println(t.Format())
	return nil
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info: usage: lrptrace info FILE")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	in, err := lrp.ReadTraceInfo(f)
	if err != nil {
		return err
	}
	h := in.Header
	fmt.Printf("format          LRPTRC v%d (header + stream checksums verified)\n", h.Version)
	fmt.Printf("workload        %s (threads=%d size=%d ops/thread=%d readpct=%d seed=%d)\n",
		h.Spec.Structure, h.Spec.Threads, h.Spec.InitialSize, h.Spec.OpsPerThread, h.Spec.ReadPct, h.Spec.Seed)
	fmt.Printf("machine         %d cores, %s, NVM mode %d\n", h.Config.Cores, h.Mechanism, h.Config.NVM.Mode)
	fmt.Printf("records         %d (%d ops, %d ticks, %d syncs, %d drains, %d marks)\n",
		in.Records, in.Ops, in.Ticks, in.Syncs, in.Drains, in.Marks)
	fmt.Printf("checksum        %08x\n", in.Checksum)
	if e := in.Embedded; e != nil {
		fmt.Printf("live window     %d ops in %d cycles (recorded under %s)\n", e.Ops, e.ExecTime, h.Mechanism)
	}
	return nil
}

func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff: usage: lrptrace diff FILE1 FILE2")
	}
	fa, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer fb.Close()
	if err := lrp.DiffTraces(fa, fb); err != nil {
		return err
	}
	fmt.Println("traces describe identical executions")
	return nil
}
