package lrp

import (
	"fmt"
	"testing"
)

// TestCounterIdentities checks that every machine count read two ways
// agrees: the run-level Stats structs (memsys, nvm, fault) against the
// metrics registry's per-entity families. It covers every mechanism ×
// {hashmap, queue, kv} × {no faults, every injector} × {default, tiny}
// geometry, plus one faulted crash sweep at 4 workers, whose torn-line
// count concurrent workers update. Registry counters and machine Stats
// both cover the whole run, warm-up fill included.
func TestCounterIdentities(t *testing.T) {
	geoms := []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"tiny", tinyGeometry},
	}
	for _, mech := range Mechanisms() {
		for _, structure := range []string{"hashmap", "queue", "kv"} {
			for _, faults := range []bool{false, true} {
				for _, g := range geoms {
					name := fmt.Sprintf("%s/%s/faults=%t/%s", mech, structure, faults, g.name)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig().WithMechanism(mech)
						cfg.Cores = 4
						g.set(&cfg)
						if faults {
							cfg.Faults = EnableAllFaults(7)
						}
						cfg.Obs = NewObserver(cfg, false)
						_, m, err := RunWorkload(cfg, Spec{Structure: structure, Threads: 4, InitialSize: 48, OpsPerThread: 20, Seed: 7})
						if err != nil {
							t.Fatal(err)
						}
						checkCounterIdentities(t, m)
					})
				}
			}
		}
	}
	t.Run("sweep/LRP/hashmap/workers=4", func(t *testing.T) {
		cfg := DefaultConfig().WithMechanism(LRP)
		cfg.Cores = 4
		cfg.TrackHB = true
		cfg.Faults = EnableAllFaults(7)
		cfg.Obs = NewObserver(cfg, false)
		_, m, rec, err := RunRecoverableWorkload(cfg, Spec{Structure: "hashmap", Threads: 4, InitialSize: 48, OpsPerThread: 20, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 4, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if m.NVM().Stats().TornApplied == 0 {
			t.Fatal("sweep applied no torn lines; the tear identity is vacuous")
		}
		checkCounterIdentities(t, m)
	})
}

// checkCounterIdentities asserts each Stats field against the registry
// family that counts the same events on machine m.
func checkCounterIdentities(t *testing.T, m *Machine) {
	t.Helper()
	reg := m.Observer().Registry()
	st, nst, fst := m.Stats(), m.NVM().Stats(), m.FaultStats()
	eq := func(what string, a, b uint64) {
		t.Helper()
		if a != b {
			t.Errorf("%s: %d != %d", what, a, b)
		}
	}
	// NOP and eADR persist dirty LLC lines on eviction and at drain on
	// behalf of no core: the machine-wide row counts those, and only
	// under them (Mechanism.LLCEvictPersists).
	wide := m.Counts().Row(-1).Persists
	if k := m.Config().Mechanism; k != NOP && k != EADR {
		eq("machine-wide persists outside NOP and eADR", wide, 0)
	}
	eq("Σpersist/issued + machine-wide persists vs Stats.Persists", reg.SumCounters("persist/issued/")+wide, st.Persists)
	eq("Σpersist/critical vs Stats.CriticalPersists", reg.SumCounters("persist/critical/"), st.CriticalPersists)
	eq("Stats.Persists vs nvm.Stats.Persists", st.Persists, nst.Persists)
	eq("nvm.Stats.Persists vs Σnvm/persists", nst.Persists, reg.SumCounters("nvm/persists/"))
	eq("Σstall/*_cycles vs Stats.StallCycles", reg.SumCounters("stall/"), st.StallCycles)
	eq("Σdowngrade/* vs Stats.Downgrades", reg.SumCounters("downgrade/"), st.Downgrades)
	eq("Σdowngrade/* + Σl1/dirty_evictions vs Stats.Writebacks",
		reg.SumCounters("downgrade/")+reg.SumCounters("l1/dirty_evictions/"), st.Writebacks)
	eq("Σret/watermark_flushes vs Stats.RETWatermarkFlushes", reg.SumCounters("ret/watermark_flushes/"), st.RETWatermarkFlushes)
	eq("Σepoch/overflows vs Stats.EpochOverflows", reg.SumCounters("epoch/overflows/"), st.EpochOverflows)
	eq("Σnvm/reads vs nvm.Stats.Reads", reg.SumCounters("nvm/reads/"), nst.Reads)
	eq("Σnvm/retries vs nvm.Stats.Retries", reg.SumCounters("nvm/retries/"), nst.Retries)
	eq("Σnvm/giveups vs nvm.Stats.Giveups", reg.SumCounters("nvm/giveups/"), nst.Giveups)
	eq("Σfault/engine_stalls vs fault.Stats.Stalls", reg.SumCounters("fault/engine_stalls/"), fst.Stalls)
	eq("Σfault/engine_stall_cycles vs fault.Stats.StallCycles", reg.SumCounters("fault/engine_stall_cycles/"), fst.StallCycles)
	eq("fault/tears vs nvm.Stats.TornApplied", reg.SumCounters("fault/tears"), nst.TornApplied)
	// Not an identity: flushAllDirty's scans (drains, epoch overflows, BB
	// and SB flushes) reach the scan-length histogram but not EngineScans.
	if scans := reg.MergeHistograms("engine/scan_len/").Count; scans != st.EngineScans {
		t.Logf("engine/scan_len samples %d, Stats.EngineScans %d", scans, st.EngineScans)
	}
}
