package lrp

// Determinism tests for the parallel experiment runner: every table and
// sweep must be byte-identical at any worker count, because each cell owns
// a private machine and results merge in cell order. These run in CI under
// -race with GOMAXPROCS=4, so they double as the race detector for the
// shared-machine sweep path.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lrp/internal/stats"
)

func parallelOpts(workers int) ExperimentOpts {
	o := tinyOpts
	o.Parallel = workers
	return o
}

// TestParallelSeedHandling pins the withDefaults seed contract: a zero
// Seed means "default 7" only when SeedSet is false; an explicit seed 0
// is honored (the CLIs always set SeedSet, so -seed 0 reaches the runs).
func TestParallelSeedHandling(t *testing.T) {
	if got := (ExperimentOpts{}).withDefaults().Seed; got != 7 {
		t.Fatalf("zero-value seed: got %d, want default 7", got)
	}
	if got := (ExperimentOpts{Seed: 0, SeedSet: true}).withDefaults().Seed; got != 0 {
		t.Fatalf("explicit seed 0 overridden to %d", got)
	}
	if got := (ExperimentOpts{Seed: 5}).withDefaults().Seed; got != 5 {
		t.Fatalf("explicit nonzero seed changed to %d", got)
	}
	if !(ExperimentOpts{}).withDefaults().SeedSet {
		t.Fatal("withDefaults must mark the seed resolved")
	}
}

// TestParallelFig5Deterministic asserts the tentpole guarantee: the Fig5
// table renders byte-identically at worker counts 1, 2 and 8.
func TestParallelFig5Deterministic(t *testing.T) {
	ref, err := Fig5(parallelOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Format()
	for _, w := range []int{2, 8} {
		tab, err := Fig5(parallelOpts(w))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Format(); got != want {
			t.Errorf("Fig5 differs at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				w, want, w, got)
		}
	}
}

// TestParallelTablesDeterministic covers every other grid-built
// generator at 1, 2 and 8 workers (Fig5, KVGrid and ReplayComparison
// have their own tests): each
// must render byte-identically, so the grid keeps row order whatever
// order the cells finish in.
func TestParallelTablesDeterministic(t *testing.T) {
	table := func(g func(ExperimentOpts) (*Table, error)) func(ExperimentOpts) (string, error) {
		return func(o ExperimentOpts) (string, error) {
			tab, err := g(o)
			return tab.Format(), err
		}
	}
	gens := map[string]func(ExperimentOpts) (string, error){
		"fig6":    table(Fig6),
		"fig8":    table(func(o ExperimentOpts) (*Table, error) { return Fig8(o, 1, 2) }),
		"size":    table(func(o ExperimentOpts) (*Table, error) { return SizeSensitivity(o, 0.01, 0.02) }),
		"ret":     table(func(o ExperimentOpts) (*Table, error) { return AblationRET(o, 2, 8) }),
		"mix":     table(func(o ExperimentOpts) (*Table, error) { return AblationReadMix(o, 0, 90) }),
		"faults":  table(FaultReport),
		"dlin":    table(DLinReport),
		"metrics": MetricsReport,
	}
	for name, g := range gens {
		want, err := g(parallelOpts(1))
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, w := range []int{2, 8} {
			got, err := g(parallelOpts(w))
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, w, err)
			}
			if got != want {
				t.Errorf("%s differs at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
					name, w, want, w, got)
			}
		}
	}
}

// TestParallelKVGridDeterministic asserts the kv acceptance guarantee:
// the KV service grid (skew × threads × mechanism) renders
// byte-identically at worker counts 1, 2 and 8.
func TestParallelKVGridDeterministic(t *testing.T) {
	o := parallelOpts(1)
	o.Threads = 4
	o.Cores = 4
	ref, err := KVGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Format()
	for _, w := range []int{2, 8} {
		o.Parallel = w
		tab, err := KVGrid(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Format(); got != want {
			t.Errorf("KVGrid differs at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				w, want, w, got)
		}
	}
}

// TestGridDropsOnlyFailedRows: one failing cell costs exactly its own
// row; every other row still renders, in matrix order, and the joined
// error names the failing cell.
func TestGridDropsOnlyFailedRows(t *testing.T) {
	for _, w := range []int{1, 3} {
		tab := stats.NewTable("grid", "row", "a", "b")
		err := grid(w, tab, labels([]string{"r0", "r1", "r2", "r3"}), 2,
			func(r, c int) (string, error) {
				if r == 2 && c == 1 {
					return "", errors.New("r2/b failed")
				}
				return fmt.Sprintf("%d.%d", r, c), nil
			}, func(vs []string) []string { return vs })
		if err == nil || !strings.Contains(err.Error(), "cell 5: r2/b failed") {
			t.Fatalf("workers=%d: error does not name the failing cell: %v", w, err)
		}
		want := [][]string{{"r0", "0.0", "0.1"}, {"r1", "1.0", "1.1"}, {"r3", "3.0", "3.1"}}
		if !reflect.DeepEqual(tab.Rows, want) {
			t.Fatalf("workers=%d: rows %v, want %v", w, tab.Rows, want)
		}
	}
}

// sweepMachine runs a small faulty workload whose exhaustive sweep
// exercises every aggregation path: ARP leaves RP-violating boundaries
// (FirstRP) and the fault plane's torn lines leave dirty recovery walks
// (FirstDirty), so the chunked merge has real first-hits to get wrong.
func sweepMachine(t *testing.T, k Mechanism) (*Machine, Recoverable) {
	t.Helper()
	cfg := tinyConfig(k)
	cfg.Faults = EnableAllFaults(9)
	cfg.Obs = NewObserver(cfg, false)
	_, m, rec, err := RunRecoverableWorkload(cfg, Spec{
		Structure: "linkedlist", Threads: 2, InitialSize: 16, OpsPerThread: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

func sweepKey(r *SweepReport) string {
	key := fmt.Sprintf("bounds=%d rp=%d arp=%d walks=%d dirty=%d quar=%d dirtyAt=%d",
		r.Boundaries, r.RPBad, r.ARPBad, r.WalksRun, r.DirtyWalks, r.Quarantined, r.FirstDirtyAt)
	if r.FirstRP != nil {
		key += fmt.Sprintf(" firstRP@%d persisted=%d/%d viol=%d",
			r.FirstRP.At, r.FirstRP.PersistedWrites, r.FirstRP.TotalWrites, len(r.FirstRP.RPViolations))
	}
	if r.FirstDirty != nil {
		key += " firstDirty=" + r.FirstDirty.String()
	}
	return key
}

// TestParallelSweepDeterministic asserts the chunked crash-boundary sweep
// reports exactly what the serial sweep reports — counts, the globally
// first RP-violating boundary and the globally first dirty walk — at
// worker counts 2 and 8, for both a violating (ARP) and a clean (LRP)
// mechanism under the full fault plane.
func TestParallelSweepDeterministic(t *testing.T) {
	for _, k := range []Mechanism{ARP, LRP} {
		m, rec := sweepMachine(t, k)
		serial, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if k == ARP && (serial.RPBad == 0 || serial.FirstRP == nil) {
			t.Fatalf("ARP sweep found no RP violations — test lost its teeth: %v", serial)
		}
		if k == LRP && serial.RPBad != 0 {
			t.Fatalf("LRP sweep violated RP: %v", serial)
		}
		if serial.WalksRun == 0 {
			t.Fatalf("no recovery walks ran: %v", serial)
		}
		want := sweepKey(serial)
		for _, w := range []int{2, 8} {
			got, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if gk := sweepKey(got); gk != want {
				t.Errorf("%v sweep differs at %d workers:\n  serial   %s\n  parallel %s", k, w, want, gk)
			}
		}
	}
}

// TestParallelPartialFailure asserts the error-aggregation fix: a matrix
// with failing cells still runs and renders every healthy cell, and the
// joined error names each failed (structure, mechanism) cell.
func TestParallelPartialFailure(t *testing.T) {
	// threads=128 fails Spec validation (1..64) in every structure's
	// cell group; threads=2 rows must survive regardless.
	tab, err := Fig8(parallelOpts(2), 2, 128)
	if err == nil {
		t.Fatal("expected per-cell failures for threads=128")
	}
	if tab == nil || len(tab.Rows) != len(Structures) {
		t.Fatalf("healthy rows discarded: %+v", tab)
	}
	for _, row := range tab.Rows {
		if row[1] != "2" {
			t.Fatalf("unexpected surviving row %v", row)
		}
	}
	msg := err.Error()
	if !strings.Contains(msg, "t=128") || !strings.Contains(msg, "linkedlist") || !strings.Contains(msg, "queue") {
		t.Fatalf("error does not name the failing cells: %v", msg)
	}
	if strings.Contains(msg, "t=2") {
		t.Fatalf("error blames healthy cells: %v", msg)
	}

}

// BenchmarkFig5Parallel measures the worker-pool speedup on the Fig5
// matrix (20 independent cells). On a multi-core host the 4-worker run
// should be at least ~2x the serial one; on a single-CPU host the pool
// only shows its (small) overhead. CI records the multi-core numbers.
func BenchmarkFig5Parallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := ExperimentOpts{
				Threads: benchThreads, Ops: benchOps, SizeScale: 0.25,
				Seed: benchSeed, Parallel: w,
			}
			for i := 0; i < b.N; i++ {
				if _, err := Fig5(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
