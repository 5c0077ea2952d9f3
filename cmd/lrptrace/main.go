// Command lrptrace replays, inspects and compares memory-op traces (see
// TRACES.md for the format and methodology); `lrpsim -run ... -record
// FILE` records them.
//
// Usage:
//
//	lrptrace replay FILE [-mechanism K | -all] [-verify] [-o FILE] [-metrics] [-json]
//	lrptrace info FILE
//	lrptrace diff FILE1 FILE2
//
// replay drives a fresh machine from the recorded op stream — under the
// recorded mechanism by default, under -mechanism K to re-time the same
// execution under another mechanism, or under -all for the comparison
// table over every registered mechanism. -verify additionally checks the
// replay reproduced the recording's embedded window counters
// byte-for-byte (recorded mechanism only). -o re-records the replayed
// execution into a new trace, whose op-stream checksum always equals the
// source's. -metrics prints the replay machine's metrics registry; -json
// prints only that registry, as the machine-readable lrpmetrics/v1
// export. -all reads only -verify; any other flag with it is an error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"lrp"
	"lrp/internal/cli"
	"lrp/internal/stats"
	"lrp/internal/trace"
)

func main() { cli.Main("lrptrace", run) }

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		usage(stderr)
		return cli.ErrUsage
	}
	switch args[0] {
	case "replay":
		return cmdReplay(args[1:], stdout, stderr)
	case "info":
		return cmdInfo(args[1:], stdout)
	case "diff":
		return cmdDiff(args[1:], stdout)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return nil
	default:
		fmt.Fprintf(stderr, "lrptrace: unknown subcommand %q\n", args[0])
		usage(stderr)
		return cli.ErrUsage
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  lrptrace replay FILE [-mechanism K | -all] [-verify] [-o FILE] [-metrics] [-json]
  lrptrace info FILE
  lrptrace diff FILE1 FILE2
(record a trace with lrpsim -run ... -record FILE)`)
}

func cmdReplay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		mechName = fs.String("mechanism", "", "replay under this mechanism (default: as recorded)")
		all      = fs.Bool("all", false, "replay under every registered mechanism and tabulate")
		verify   = fs.Bool("verify", false, "verify the replay reproduces the embedded live window byte-for-byte")
		out      = fs.String("o", "", "re-record the replayed execution to FILE")
		metrics  = fs.Bool("metrics", false, "print the replay machine's metrics registry")
		jsonOut  = fs.Bool("json", false, "print only the metrics registry, as lrpmetrics/v1 JSON (implies -metrics)")
	)
	if len(args) < 1 || len(args[0]) > 0 && args[0][0] == '-' {
		return fmt.Errorf("replay: usage: lrptrace replay FILE [flags]")
	}
	path := args[0]
	fs.Parse(args[1:])
	mode, reads := "replay", []string{"mechanism", "verify", "o", "metrics", "json"}
	if *all {
		mode, reads = "replay -all", []string{"all", "verify"}
	}
	if err := cli.Reads(fs, mode, reads...); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if *all {
		return replayAll(raw, *verify, stdout)
	}
	// -json is the machine-readable form of -metrics and owns stdout.
	status := stdout
	if *jsonOut {
		*metrics = true
		status = io.Discard
	}

	o := lrp.ReplayOpts{MechanismSet: *mechName != ""}
	if o.MechanismSet {
		if o.Mechanism, err = lrp.ParseMechanism(*mechName); err != nil {
			return err
		}
	}
	if *metrics {
		in, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		o.Obs = lrp.NewObserver(in.Header().MachineConfig(o.Mechanism), false)
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
	fmt.Fprintf(status, "replayed        %s under %s (recorded under %s)\n",
		rp.Header.Spec.Structure, rp.Mechanism, rp.Header.Mechanism)
	fmt.Fprintf(status, "trace ops       %d (checksum %08x, verified)\n", rp.Ops, rp.Checksum)
	if rp.Result != nil {
		fmt.Fprintf(status, "exec time       %v\n", rp.Result.ExecTime)
		fmt.Fprintf(status, "persists        %d (%.1f%% on the critical path)\n",
			rp.Result.Sys.Persists, rp.Result.CriticalWritebackPct())
		fmt.Fprintf(status, "stall cycles    %d\n", rp.Result.Sys.StallCycles)
	}
	if *verify {
		if rp.Mechanism != rp.Header.Mechanism {
			return fmt.Errorf("replay: -verify requires replaying under the recorded mechanism (%s)", rp.Header.Mechanism)
		}
		if err := rp.VerifyEmbedded(); err != nil {
			return err
		}
		fmt.Fprintln(status, "verify          replay reproduces the recorded window byte-for-byte")
	}
	if *out != "" {
		if err := os.WriteFile(*out, re.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(status, "re-recorded     %s (checksum %08x, matches source)\n", *out, rp.Checksum)
	}
	if *jsonOut {
		return lrp.WriteMetricsJSON(rp.Sys, stdout)
	}
	if *metrics {
		fmt.Fprintf(stdout, "\n%s\n", lrp.MetricsSummary(rp.Sys))
	}
	return nil
}

// replayAll replays one trace under every mechanism and tabulates the
// per-mechanism execution time; each replay is re-recorded in memory and
// its op-stream checksum asserted against the source.
func replayAll(raw []byte, verify bool, stdout io.Writer) error {
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
	fmt.Fprintln(stdout, t.Format())
	return nil
}

func cmdInfo(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("info: usage: lrptrace info FILE")
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	in, err := lrp.ReadTraceInfo(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	h := in.Header
	fmt.Fprintf(stdout, "format          LRPTRC v%d (header + stream checksums verified)\n", h.Version)
	fmt.Fprintf(stdout, "workload        %s (threads=%d size=%d ops/thread=%d readpct=%d seed=%d)\n",
		h.Spec.Structure, h.Spec.Threads, h.Spec.InitialSize, h.Spec.OpsPerThread, h.Spec.ReadPct, h.Spec.Seed)
	fmt.Fprintf(stdout, "machine         %d cores, %s, NVM mode %d\n", h.Config.Cores, h.Mechanism, h.Config.NVM.Mode)
	fmt.Fprintf(stdout, "records         %d (%d ops, %d ticks, %d syncs, %d drains, %d marks)\n",
		in.Records, in.Ops, in.Ticks, in.Syncs, in.Drains, in.Marks)
	fmt.Fprintf(stdout, "checksum        %08x\n", in.Checksum)
	if e := in.Embedded; e != nil {
		fmt.Fprintf(stdout, "live window     %d ops in %d cycles (recorded under %s)\n", e.Ops, e.ExecTime, h.Mechanism)
	}
	return nil
}

func cmdDiff(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("diff: usage: lrptrace diff FILE1 FILE2")
	}
	a, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	b, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	if err := lrp.DiffTraces(bytes.NewReader(a), bytes.NewReader(b)); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "traces describe identical executions")
	return nil
}
