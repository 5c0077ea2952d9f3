package lrp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenRecoveryQuarantine pins, for ARP and NOP runs of every
// workload at seed 7, the crash sweep's summary line and the first dirty
// recovery walk's full quarantine list (the findings lrpcheck prints)
// against testdata/golden/recovery_quarantine.txt. ARP runs on the
// default geometry, as lrpcheck does; NOP on a tiny one (1 KB L1, 8 KB
// LLC, one outstanding persist), since only LLC evictions persist its
// writes. Regenerate deliberately with
//
//	go test -run TestGoldenRecoveryQuarantine -update-golden .
func TestGoldenRecoveryQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve exhaustive crash sweeps; skipped in -short mode")
	}
	path := filepath.Join("testdata", "golden", "recovery_quarantine.txt")
	var b strings.Builder
	dirty := map[string]bool{}
	for _, mech := range []Mechanism{ARP, NOP} {
		for _, structure := range WorkloadNames() {
			cfg := DefaultConfig().WithMechanism(mech)
			cfg.Cores = 4
			cfg.TrackHB = true
			if mech == NOP {
				cfg.L1Size, cfg.L1Ways, cfg.MaxPendingPersists = 1<<10, 2, 1
				cfg.LLCSize, cfg.LLCWays, cfg.LLCBanks = 8<<10, 2, 4
			}
			spec := Spec{Structure: structure, Threads: 4, InitialSize: 64, OpsPerThread: 40, Seed: 7}
			_, m, rec, err := RunRecoverableWorkload(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Seed: spec.Seed})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s %s\n%v\n", mech, structure, sweep)
			if first := sweep.FirstDirty; first != nil {
				dirty[structure] = true
				fmt.Fprintf(&b, "first dirty recovery walk at t=%v: %v\n", sweep.FirstDirtyAt, first)
				for _, q := range first.Quarantined {
					fmt.Fprintf(&b, "  %v\n", q)
				}
			}
		}
	}
	if len(dirty) < 3 {
		t.Fatalf("only %d structures produced a dirty walk; the golden needs at least three", len(dirty))
	}
	got := b.String()
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output diverges from %s at line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %s has %d", len(gl), path, len(wl))
	}
}
