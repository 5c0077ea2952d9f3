package lrp

// Tests for the trace capture & replay subsystem at the public-API
// level: the committed golden corpus must keep replaying exactly, and
// the replay-backed comparison must be deterministic at any worker
// count. Byte-level codec and corruption coverage lives in
// internal/trace; these tests pin the end-to-end contracts CI smoke
// relies on (TRACES.md).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lrp/internal/dlin"
	"lrp/internal/exp"
	"lrp/internal/trace"
)

// goldenTraces returns the committed corpus paths, sorted for
// deterministic iteration.
func goldenTraces(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "traces", "*.lrt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden traces in testdata/traces")
	}
	sort.Strings(paths)
	return paths
}

// TestGoldenCorpusReplays: every committed trace must decode, verify
// its checksums, and — replayed under its recorded mechanism —
// reproduce the embedded live window byte-for-byte. This is the
// backward-compatibility gate for the format: a codec or machine-model
// change that breaks it must regenerate the corpus consciously
// (TRACES.md documents how).
func TestGoldenCorpusReplays(t *testing.T) {
	for _, path := range goldenTraces(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			info, err := ReadTraceInfo(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("corpus trace no longer decodes: %v", err)
			}
			if info.Embedded == nil {
				t.Fatal("corpus trace has no embedded result")
			}
			rp, err := ReplayTrace(bytes.NewReader(raw), ReplayOpts{})
			if err != nil {
				t.Fatalf("corpus trace no longer replays: %v", err)
			}
			if rp.Checksum != info.Checksum {
				t.Fatalf("replay verified checksum %08x, info says %08x", rp.Checksum, info.Checksum)
			}
			if err := rp.VerifyEmbedded(); err != nil {
				t.Fatalf("replay no longer reproduces the recorded window: %v\n"+
					"(machine-model change? regenerate testdata/traces per TRACES.md)", err)
			}
		})
	}
}

// TestGoldenCorpusCrossMechanism: each corpus trace replays under all
// five mechanisms from the identical op stream — re-recording every
// replay must reproduce the source checksum whatever the mechanism.
func TestGoldenCorpusCrossMechanism(t *testing.T) {
	for _, path := range goldenTraces(t) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range Mechanisms() {
			var re bytes.Buffer
			in, err := trace.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			w, err := trace.NewWriter(&re, trace.Header{
				Version:   in.Header().Version,
				Mechanism: k,
				Config:    in.Header().MachineConfig(k),
				Spec:      in.Header().Spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			rp, err := ReplayTrace(bytes.NewReader(raw), ReplayOpts{
				Mechanism: k, MechanismSet: true, Rec: w,
			})
			if err != nil {
				t.Fatalf("%s under %v: %v", filepath.Base(path), k, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := w.Summary().Checksum; got != rp.Checksum {
				t.Errorf("%s under %v: re-recorded checksum %08x, source %08x — op stream not mechanism-invariant",
					filepath.Base(path), k, got, rp.Checksum)
			}
		}
	}
}

// replayMetricsKey renders one replay's observable outcome for
// determinism comparison.
func replayMetricsKey(rp *Replayed) string {
	return fmt.Sprintf("mech=%v ops=%d time=%d crc=%08x exec=%d persists=%d stalls=%d",
		rp.Mechanism, rp.Ops, rp.Time, rp.Checksum,
		rp.Result.ExecTime, rp.Result.Sys.Persists, rp.Result.Sys.StallCycles)
}

// TestGoldenTraceReplayDeterministic replays the full corpus×mechanism
// matrix through the experiment pool at worker counts 1, 2 and 8: the
// merged metrics must be byte-identical (runs under -race in CI, so
// this doubles as the race check for concurrent replays).
func TestGoldenTraceReplayDeterministic(t *testing.T) {
	paths := goldenTraces(t)
	type cell struct {
		path string
		mech Mechanism
	}
	var cells []cell
	for _, p := range paths {
		for _, k := range Mechanisms() {
			cells = append(cells, cell{p, k})
		}
	}
	run := func(workers int) string {
		keys, err := exp.Map(workers, len(cells), func(i int) (string, error) {
			raw, err := os.ReadFile(cells[i].path)
			if err != nil {
				return "", err
			}
			rp, err := ReplayTrace(bytes.NewReader(raw), ReplayOpts{
				Mechanism: cells[i].mech, MechanismSet: true,
			})
			if err != nil {
				return "", err
			}
			return replayMetricsKey(rp), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b bytes.Buffer
		for i, k := range keys {
			fmt.Fprintf(&b, "%s %s %s\n", filepath.Base(cells[i].path), cells[i].mech, k)
		}
		return b.String()
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != want {
			t.Errorf("replay metrics differ at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				w, want, w, got)
		}
	}
}

// TestReplayComparisonDeterministic: the replay-backed experiment table
// keeps one row per structure and renders byte-identically at worker
// counts 1, 2 and 8.
func TestReplayComparisonDeterministic(t *testing.T) {
	ref, err := ReplayComparison(parallelOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) != len(Structures) {
		t.Fatalf("expected %d rows, got %d", len(Structures), len(ref.Rows))
	}
	want := ref.Format()
	for _, w := range []int{2, 8} {
		tab, err := ReplayComparison(parallelOpts(w))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Format(); got != want {
			t.Errorf("ReplayComparison differs at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				w, want, w, got)
		}
	}
}

// TestTraceHistoryRoundTrip: the trace is a complete durable-
// linearizability witness, for every registered workload. Record a
// history-capturing run, replay the trace with tracking on in a fresh
// process-equivalent (no state from the recording machine), and the
// replayed history must equal the live one op for op, whole Op values
// included (kv's CAS Exp/Val remap among them); a recovery handle
// rebuilt from the spec alone must then support a full dlin sweep over
// the replay machine, as clean as the live run's.
func TestTraceHistoryRoundTrip(t *testing.T) {
	for _, structure := range WorkloadNames() {
		t.Run(structure, func(t *testing.T) {
			testTraceHistoryRoundTrip(t, structure)
		})
	}
}

func testTraceHistoryRoundTrip(t *testing.T, structure string) {
	cfg := tinyConfig(LRP)
	spec := Spec{Structure: structure, Threads: 2, InitialSize: 32, OpsPerThread: 20, Seed: 5}
	var buf bytes.Buffer
	live, m, rec, hist, sum, err := RecordTraceHist(cfg, spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if live == nil || hist == nil || sum.Ops == 0 {
		t.Fatalf("incomplete recording: live=%v hist=%v sum=%+v", live, hist, sum)
	}
	if hist.Updates() == 0 {
		t.Fatal("live history recorded no updates")
	}
	if structure == "kv" {
		swapped := false
		for _, o := range hist.Ops {
			swapped = swapped || (o.Kind == dlin.OpCAS && o.OK && o.Exp != 0 && o.Val != 0)
		}
		if !swapped {
			t.Fatal("kv history holds no successful CAS to pin the Exp/Val remap")
		}
	}

	// The live machine sweeps clean (baseline for the replay comparison).
	liveSweep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: hist, Workers: 2, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !liveSweep.Consistent() || liveSweep.DLinChecked == 0 {
		t.Fatalf("live sweep not clean: %+v", liveSweep)
	}

	rp, err := ReplayTrace(bytes.NewReader(buf.Bytes()), ReplayOpts{TrackHB: true})
	if err != nil {
		t.Fatal(err)
	}
	if rp.History == nil {
		t.Fatal("replay of a history-capturing trace carries no history")
	}
	if got, want := len(rp.History.Ops), len(hist.Ops); got != want {
		t.Fatalf("replayed history has %d ops, live %d", got, want)
	}
	if rp.History.Structure != hist.Structure {
		t.Fatalf("replayed history structure %q, live %q", rp.History.Structure, hist.Structure)
	}
	for i, o := range rp.History.Ops {
		if l := hist.Ops[i]; o != l {
			t.Fatalf("history op %d differs after the trace round trip:\n got %+v\nwant %+v", i, o, l)
		}
	}

	// The replay machine plus the carried history support the same sweep:
	// the recovery handle is rebuilt from the spec (the trace drives raw
	// memory ops; structure anchors are deterministic static allocations).
	rec2, err := RecoverableFor(rp.Sys, spec)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := SweepCrash(rp.Sys, SweepOpts{Rec: rec2, Hist: rp.History, Workers: 2, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !sweep.Consistent() {
		t.Fatalf("replayed sweep found violations: %+v (first: %+v)", sweep, sweep.DLinViolations)
	}
	if sweep.DLinChecked != sweep.Boundaries || sweep.DLinChecked == 0 {
		t.Fatalf("replayed sweep checked %d of %d boundaries", sweep.DLinChecked, sweep.Boundaries)
	}
}

// TestRecordReplayPublicAPI: the README/TRACES.md workflow through the
// public API — record live, replay, verify, re-record, diff.
func TestRecordReplayPublicAPI(t *testing.T) {
	cfg := tinyConfig(LRP)
	spec := Spec{Structure: "hashmap", Threads: 2, InitialSize: 32, OpsPerThread: 20, Seed: 5}
	var buf bytes.Buffer
	live, m, sum, err := RecordTrace(cfg, spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || live == nil || sum.Ops == 0 {
		t.Fatalf("incomplete recording: live=%v m=%v sum=%+v", live, m, sum)
	}
	rp, err := ReplayTrace(bytes.NewReader(buf.Bytes()), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.VerifyEmbedded(); err != nil {
		t.Fatal(err)
	}
	if rp.Result.ExecTime != live.ExecTime {
		t.Fatalf("replay time %v, live %v", rp.Result.ExecTime, live.ExecTime)
	}
	if err := DiffTraces(bytes.NewReader(buf.Bytes()), bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}
