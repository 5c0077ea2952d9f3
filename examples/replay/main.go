// Replay: record one hashmap run, then replay that single trace under
// every registered persistency mechanism (TRACES.md).
//
// This is the paper's trace-driven methodology in miniature: the
// recorded trace pins the memory-op stream and the cross-core
// synchronization order, so every mechanism is timed on the identical
// execution — mechanism stalls cannot feed back into the op order the
// way they do when each mechanism re-runs the workload live. The
// op-stream checksum printed per row is the proof: re-recording each
// replay yields the same checksum as the source trace.
package main

import (
	"bytes"
	"fmt"

	"lrp"
)

func main() {
	cfg := lrp.DefaultConfig().WithMechanism(lrp.NOP)
	cfg.Cores = 16
	spec := lrp.Spec{
		Structure:    "hashmap",
		Threads:      8,
		InitialSize:  1024,
		OpsPerThread: 60,
		Seed:         11,
	}

	var trace bytes.Buffer
	live, _, sum, err := lrp.RecordTrace(cfg, spec, &trace)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recorded: hashmap, %d threads, %d ops/thread, under NOP\n",
		spec.Threads, spec.OpsPerThread)
	fmt.Printf("trace:    %d ops in %d bytes (checksum %08x), live window %v\n",
		sum.Ops, sum.WireBytes, sum.Checksum, live.ExecTime)
	fmt.Println()
	fmt.Printf("%-5s %12s %8s %10s %14s %10s\n",
		"mech", "exec time", "vs NOP", "persists", "critical-path", "checksum")

	var base float64
	for _, mech := range lrp.Mechanisms() {
		rp, err := lrp.ReplayTrace(bytes.NewReader(trace.Bytes()), lrp.ReplayOpts{
			Mechanism:    mech,
			MechanismSet: true,
		})
		if err != nil {
			panic(err)
		}
		if mech == lrp.NOP {
			base = float64(rp.Result.ExecTime)
			// The NOP replay must reproduce the NOP recording exactly.
			if err := rp.VerifyEmbedded(); err != nil {
				panic(err)
			}
		}
		fmt.Printf("%-5s %12v %7.2fx %10d %13.1f%% %10x\n",
			mech, rp.Result.ExecTime, float64(rp.Result.ExecTime)/base,
			rp.Result.Sys.Persists, rp.Result.CriticalWritebackPct(), rp.Checksum)
	}
	fmt.Println()
	fmt.Println("every row replays the identical op stream (same checksum);")
	fmt.Println("only the mechanism's persist timing differs — the paper's §6 comparison setup.")
}
