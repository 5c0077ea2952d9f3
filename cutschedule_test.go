package lrp

import (
	"fmt"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/model"
)

// TestCutScheduleMatchesCheckCut differentially checks the crash sweep's
// per-boundary verdict, model.CutSchedule.Bad, against the CheckCut
// oracle on real runs: every registered mechanism, four structures,
// several seeds, and one tiny geometry (16-line L1, one outstanding
// persist per thread, an 8 KB LLC) that forces evictions and persist
// back-pressure; its LLC evictions are what persist NOP's writes, the
// only source of ARP-rule violations. A third setup tears half the
// persists in flight, so writes become durable at torn starts as well as
// at acks.
// Probes are every CrashBoundaries instant plus every write's durable
// instant ±1; each schedule span starts at a write's durable instant and
// ends at one or at engine.Infinity, so the probes cover every span edge.
func TestCutScheduleMatchesCheckCut(t *testing.T) {
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
		{"torn", func(c *Config) { c.Faults = FaultConfig{Seed: 1, TearProb: 0.5} }},
	}
	structures := []string{"kv", "hashmap", "bstree", "queue"}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	// bad counts inconsistent probes per semantics over the cases that
	// ran, so that a suite where no cut is ever inconsistent fails.
	var bad [2]int
	ran, cases := 0, 0
	for _, mech := range Mechanisms() {
		for _, structure := range structures {
			for gi, g := range geoms {
				for _, seed := range seeds {
					if gi > 0 && seed != seeds[0] {
						continue
					}
					cases++
					name := fmt.Sprintf("%s/%s/%s/seed=%d", mech, structure, g.name, seed)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig().WithMechanism(mech)
						cfg.Cores = 4
						cfg.TrackHB = true
						g.set(&cfg)
						_, m, err := RunWorkload(cfg, Spec{
							Structure: structure, Threads: 4, InitialSize: 48, OpsPerThread: 30, Seed: seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						rp, arp := checkCutSchedule(t, m, fmt.Sprintf("mech=%s structure=%s geometry=%s seed=%d", mech, structure, g.name, seed))
						bad[0] += rp
						bad[1] += arp
						ran++
					})
				}
			}
		}
	}
	if ran == cases && (bad[0] == 0 || bad[1] == 0) {
		t.Fatalf("inconsistent probes: %d RP, %d ARP; the comparison needs both", bad[0], bad[1])
	}
	t.Logf("%d cases, inconsistent probes: %d RP, %d ARP", ran, bad[0], bad[1])
}

// checkCutSchedule compares both semantics' schedules with CheckCut at
// every probe instant of m, reporting the first disagreement as a
// one-line reproducer prefixed with repro. It returns how many probes
// were inconsistent under RP and under ARP.
func checkCutSchedule(t *testing.T, m *Machine, repro string) (rpBad, arpBad int) {
	t.Helper()
	tr := m.Tracker()
	probes := map[Time]bool{}
	for _, at := range CrashBoundaries(m) {
		probes[at] = true
	}
	for tid := 0; tid < tr.Threads(); tid++ {
		for s := uint64(1); s <= tr.WriteCount(tid); s++ {
			if p := tr.DurableAt(model.Stamp{Tid: tid, Seq: s}); p != engine.Infinity {
				probes[p-1], probes[p], probes[p+1] = true, true, true
			}
		}
	}
	for _, sem := range []model.Semantics{model.RP, model.ARP} {
		cs := tr.CutSchedule(sem)
		for at := range probes { // maprange:ok — each probe is checked independently
			got, want := cs.Bad(at), len(tr.CheckCut(at, sem)) > 0
			if got != want {
				t.Fatalf("%s sem=%v t=%d: CutSchedule.Bad=%v, CheckCut bad=%v", repro, sem, at, got, want)
			}
			if got && sem == model.RP {
				rpBad++
			} else if got {
				arpBad++
			}
		}
	}
	return rpBad, arpBad
}
