package lrp

import (
	"bytes"
	"fmt"
	"io"

	"lrp/internal/exp"
	"lrp/internal/stats"
	"lrp/internal/trace"
)

// Trace capture & replay (see TRACES.md). A recorded trace pins one
// execution's complete memory-op stream and synchronization order;
// replaying it drives the machine directly from the stream — no workload
// goroutines — so the identical op order can be re-executed under any
// mechanism. That is the paper's trace-driven methodology: PRiME replays
// one Pin-captured trace per workload under every mechanism.
type (
	// TraceSummary reports what a recording captured (ops, bytes,
	// op-stream checksum).
	TraceSummary = trace.Summary
	// TraceInfo is a decoded trace's summary (ReadTraceInfo).
	TraceInfo = trace.Info
	// ReplayOpts configures ReplayTrace.
	ReplayOpts = trace.ReplayOpts
	// Replayed is the outcome of one replay.
	Replayed = trace.Replayed
	// TraceHeader identifies the machine and workload a trace captured.
	TraceHeader = trace.Header
)

// RecordTrace runs one workload live under cfg's mechanism and streams
// its memory-op trace to dst. The live measured window is embedded in
// the trace so replays can verify themselves against it. The returned
// machine allows the same post-run inspection as RunWorkload.
func RecordTrace(cfg Config, spec Spec, dst io.Writer) (*Result, *Machine, TraceSummary, error) {
	return trace.Record(cfg, spec, dst)
}

// RecordTraceHist is RecordTrace plus abstract operation-history
// capture: the workload runs through the history-instrumented wrappers
// and the trace gains footer-class op-history records, so a later replay
// carries the history back out (Replayed.History) for
// durable-linearizability checking without the original process. The op
// stream and checksum are identical to RecordTrace's for the same
// (cfg, spec); the live run's Recoverable handle and history return
// alongside.
func RecordTraceHist(cfg Config, spec Spec, dst io.Writer) (*Result, *Machine, Recoverable, *OpHistory, TraceSummary, error) {
	return trace.RecordHistory(cfg, spec, dst)
}

// ReplayTrace replays a recorded trace from src on a fresh machine —
// under the recorded mechanism by default, or any other via o. Loads
// and CAS outcomes are verified against the recording at every op.
func ReplayTrace(src io.Reader, o ReplayOpts) (*Replayed, error) {
	return trace.Replay(src, o)
}

// ReadTraceInfo decodes and fully verifies a trace without building a
// machine.
func ReadTraceInfo(src io.Reader) (*TraceInfo, error) {
	return trace.ReadInfo(src)
}

// DiffTraces compares two traces' op streams record by record (headers
// and embedded results excluded). Nil means identical executions.
func DiffTraces(a, b io.Reader) error {
	return trace.Diff(a, b)
}

// ReplayComparison is the replay-backed mechanism comparison: each
// workload is recorded once under NOP (volatile timing cannot feed a
// persistency mechanism's stalls back into the op order), then that one
// trace replays under every registered mechanism. Unlike Fig5 — where
// each mechanism re-executes the workload and the interleaving re-forms
// under its own timing — every column of a row here measures the
// identical op stream, which is how the paper's simulator (PRiME + Pin
// traces) produced its figures. Each replay is re-recorded and its
// op-stream checksum asserted against the source trace.
func ReplayComparison(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	ks := append([]Mechanism{NOP}, o.kinds(nonBaseline)...)

	// Record every structure once, in parallel: the traces are the row
	// inputs, held in memory (a few MB at experiment scale).
	traces, err := exp.Map(o.Parallel, len(Structures), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		if _, _, _, err := trace.Record(o.config(NOP, false), o.spec(Structures[i]), &buf); err != nil {
			return nil, fmt.Errorf("record %s: %w", Structures[i], err)
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}

	// Replay matrix: structure × mechanism, each cell an independent
	// machine fed from its row's shared trace bytes.
	t := stats.NewTable("Replay comparison: one NOP trace per workload, replayed under every mechanism",
		append([]string{"workload", "trace ops", "checksum"}, kindNames(ks[1:])...)...)
	err = grid(o.Parallel, t, labels(Structures), len(ks), func(r, c int) (*Replayed, error) {
		rp, err := trace.Rerecord(traces[r], ReplayOpts{Mechanism: ks[c], MechanismSet: true}, io.Discard)
		if err == nil && rp.Result == nil {
			err = fmt.Errorf("trace has no measured window")
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s under %s: %w", Structures[r], ks[c], err)
		}
		return rp, nil
	}, func(rps []*Replayed) []string {
		rs := make([]*Result, len(rps))
		for i, rp := range rps {
			rs[i] = rp.Result
		}
		return append([]string{stats.Count(rps[0].Ops), fmt.Sprintf("%08x", rps[0].Checksum)}, ratios(rs)...)
	})
	t.AddNote("execution time normalized to the NOP replay; identical op stream per row (checksum re-verified per cell)")
	t.AddNote("threads=%d ops/thread=%d sizes=%v seed=%d", o.Threads, o.Ops, sizesNote(o), o.Seed)
	return t, err
}
