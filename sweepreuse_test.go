package lrp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lrp/internal/dlin"
	"lrp/internal/model"
)

// TestSweepReuseMatchesFullWalk differentially checks SweepCrash, which
// reuses a recovery walk and durable-linearizability verdict until a
// write hits a line that walk read, against referenceSweep, which walks
// and checks every boundary afresh. Every registered mechanism ×
// every workload, with the fault plane on and off, on the default
// geometry and the tiny one of TestCutScheduleMatchesCheckCut, at 1, 2
// and 8 workers: the String, the JSON export, the first dirty walk and
// the findings must all be equal. A failure names its subtest, so
// `go test -run` with that name reproduces it.
func TestSweepReuseMatchesFullWalk(t *testing.T) {
	type geometry struct {
		name string
		set  func(*Config)
	}
	geoms := []geometry{
		{"default", func(*Config) {}},
		{"tiny", func(c *Config) {
			c.L1Size, c.L1Ways, c.MaxPendingPersists = 1<<10, 2, 1
			c.LLCSize, c.LLCWays, c.LLCBanks = 8<<10, 2, 4
		}},
	}
	const seed = 3
	// dirty and dlinBad count the reference's dirty walks and violating
	// boundaries, so that a matrix on which neither path is ever taken
	// fails.
	dirty, dlinBad, ran, cases := 0, 0, 0, 0
	for _, mech := range Mechanisms() {
		for _, structure := range WorkloadNames() {
			for _, g := range geoms {
				for _, faults := range []bool{false, true} {
					cases++
					name := fmt.Sprintf("%s/%s/%s/faults=%v", mech, structure, g.name, faults)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig().WithMechanism(mech)
						cfg.Cores = 4
						cfg.TrackHB = true
						g.set(&cfg)
						if faults {
							cfg.Faults = EnableAllFaults(seed)
						}
						_, m, rec, h, err := RunRecoverableWorkloadHist(cfg, Spec{
							Structure: structure, Threads: 4, InitialSize: 48, OpsPerThread: 30, Seed: seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						want := referenceSweep(t, m, rec, h, seed)
						for _, w := range []int{1, 2, 8} {
							got, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Workers: w, Seed: seed})
							if err != nil {
								t.Fatal(err)
							}
							if diff := sweepDiff(got, want); diff != "" {
								t.Fatalf("go test -run 'TestSweepReuseMatchesFullWalk/%s' . (workers=%d): %s", name, w, diff)
							}
						}
						dirty += want.DirtyWalks
						dlinBad += want.DLinBad
						ran++
					})
				}
			}
		}
	}
	if ran == cases && (dirty == 0 || dlinBad == 0) {
		t.Fatalf("%d dirty walks, %d dlin-violating boundaries: the comparison needs both", dirty, dlinBad)
	}
	t.Logf("%d cases: %d dirty walks, %d dlin-violating boundaries", ran, dirty, dlinBad)
}

// referenceSweep is SweepCrash with nothing carried between boundaries
// but the image cursor: serially, a recovery walk and a fresh dlin.Pass
// at every boundary. It walks a clone of each image, which holds no memo
// of earlier walks, so every walk is a full one.
func referenceSweep(t *testing.T, m *Machine, rec Recoverable, h *OpHistory, seed uint64) *SweepReport {
	t.Helper()
	tr := m.Tracker()
	ck, err := dlin.NewChecker(h, tr)
	if err != nil {
		t.Fatal(err)
	}
	rp, arp := tr.NewHBNeed().CutSchedule(model.RP), tr.NewHBNeed().CutSchedule(model.ARP)
	bounds := CrashBoundaries(m)
	rep := &SweepReport{Mechanism: m.Config().Mechanism.String(), Seed: seed, Boundaries: len(bounds)}
	images := m.CrashImages()
	firstRP := -1
	for i, at := range bounds {
		if rp.Bad(at) {
			rep.RPBad++
			if firstRP < 0 {
				firstRP = i
			}
		}
		if arp.Bad(at) {
			rep.ARPBad++
		}
		r := rec.Recover(images(at).Clone())
		rep.WalksRun++
		if !r.Clean() {
			rep.DirtyWalks++
			rep.Quarantined += len(r.Quarantined)
			if rep.FirstDirty == nil {
				rep.FirstDirty, rep.FirstDirtyAt = r.Clone(), at
			}
		}
		rep.DLinChecked++
		vs := ck.NewPass().Check(at, r)
		if len(vs) > 0 {
			rep.DLinBad++
		}
		for _, v := range vs {
			if len(rep.DLinViolations) < MaxDLinFindings {
				rep.DLinViolations = append(rep.DLinViolations, DLinFinding{Boundary: i, At: at, Mechanism: rep.Mechanism, Seed: seed, V: v})
			}
		}
	}
	if len(rep.DLinViolations) > 0 {
		rep.FirstDLin, rep.FirstDLinAt = &rep.DLinViolations[0], rep.DLinViolations[0].At
	}
	if firstRP >= 0 {
		rep.FirstRP, _ = Crash(m, bounds[firstRP])
	}
	return rep
}

// sweepDiff describes the first difference between two sweep reports,
// "" when there is none.
func sweepDiff(got, want *SweepReport) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("String %q, reference %q", g, w)
	}
	var gj, wj bytes.Buffer
	if err := got.WriteJSON(&gj); err != nil {
		return err.Error()
	}
	if err := want.WriteJSON(&wj); err != nil {
		return err.Error()
	}
	if gj.String() != wj.String() {
		return fmt.Sprintf("JSON differs:\n%s\nreference:\n%s", gj.String(), wj.String())
	}
	if !reflect.DeepEqual(got.FirstDirty, want.FirstDirty) {
		return fmt.Sprintf("first dirty walk %+v, reference %+v", got.FirstDirty, want.FirstDirty)
	}
	if !reflect.DeepEqual(got.DLinViolations, want.DLinViolations) {
		return fmt.Sprintf("findings %v, reference %v", got.DLinViolations, want.DLinViolations)
	}
	return ""
}
