package lrp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current code")

// goldenOpts mirrors the CLI invocation the golden file was captured
// with: lrpsim -experiment all -threads 4 -ops 60 -scale 0.25 -seed 7,
// restricted to the paper's five mechanisms so the pinned tables stay
// frozen as extension mechanisms register.
var goldenOpts = ExperimentOpts{
	Threads:   4,
	Ops:       60,
	SizeScale: 0.25,
	Seed:      7,
	SeedSet:   true,
	Mechs:     []Mechanism{NOP, SB, BB, ARP, LRP},
}

// TestGoldenExperimentAll pins the full experiment suite byte-for-byte
// against testdata/golden/experiment_all.txt, captured before the
// mechanism layer was extracted. Any refactor of the ported mechanisms
// must reproduce these tables exactly. Regenerate deliberately with
//
//	go test -run TestGoldenExperimentAll -update-golden .
func TestGoldenExperimentAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix; skipped in -short mode")
	}
	got, err := ExperimentAll(goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "experiment_all.txt", got)
}

// extraOpts is the parameter set of experiment_extra.txt: small enough
// that the exhaustive crash sweeps stay quick, with every registered
// mechanism (Mechs nil) so eADR's mechanism-held crash image is pinned.
var extraOpts = ExperimentOpts{
	Threads:   2,
	Ops:       10,
	SizeScale: 0.02,
	Seed:      7,
	SeedSet:   true,
	Parallel:  2,
}

// TestGoldenExperimentExtra pins the tables outside `-experiment all`
// byte-for-byte against testdata/golden/experiment_extra.txt: the KV
// service grid, the fault-injection and durable-linearizability crash
// sweeps, and the metrics report. Regenerate deliberately with
//
//	go test -run TestGoldenExperimentExtra -update-golden .
func TestGoldenExperimentExtra(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive crash sweeps; skipped in -short mode")
	}
	// A failing cell is pinned too: the table renders its healthy rows
	// and the joined cell errors follow it.
	var b strings.Builder
	add := func(s string, err error) {
		b.WriteString(s)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		}
	}
	for _, g := range []func(ExperimentOpts) (*Table, error){KVGrid, FaultReport, DLinReport} {
		tab, err := g(extraOpts)
		if tab == nil {
			t.Fatal(err)
		}
		add(tab.Format()+"\n", err)
	}
	add(MetricsReport(extraOpts))
	checkGolden(t, "experiment_extra.txt", b.String())
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("output diverges from %s at byte %d (line %d):\ngot  %q\nwant %q",
					path, i, line, clip(got, i), clip(string(want), i))
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("output length %d, golden %s is %d bytes", len(got), path, len(want))
	}
}

// clip returns a short window of s around byte offset i for diffs.
func clip(s string, i int) string {
	lo, hi := i-20, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
