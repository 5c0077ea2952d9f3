package workload

import (
	"testing"

	"lrp/internal/engine"
	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/model"
)

func smallSpec(structure string) Spec {
	return Spec{
		Structure:    structure,
		Threads:      2,
		InitialSize:  128,
		OpsPerThread: 60,
		Seed:         7,
	}
}

// smallCfg is a scaled-down machine in the paper's operating regime: the
// structure's working set far exceeds the L1 (so released lines are
// evicted — and persisted off the critical path — before other threads
// acquire them) and NVM bandwidth is not the bottleneck.
func smallCfg(k mech.Kind) memsys.Config {
	cfg := memsys.TestConfig(2).WithMechanism(k)
	cfg.NVM.Controllers = 8
	return cfg
}

func TestSpecValidate(t *testing.T) {
	good := smallSpec("linkedlist")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Spec{
		{Structure: "btree", Threads: 1, OpsPerThread: 1},
		{Structure: "queue", Threads: 0, OpsPerThread: 1},
		{Structure: "queue", Threads: 65, OpsPerThread: 1},
		{Structure: "queue", Threads: 1, OpsPerThread: 0},
		{Structure: "queue", Threads: 1, OpsPerThread: 1, InitialSize: -1},
		{Structure: "queue", Threads: 1, OpsPerThread: 1, ReadPct: 101},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestRunAllStructures(t *testing.T) {
	for _, structure := range Structures {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			res, sys, err := Run(smallCfg(mech.LRP), smallSpec(structure))
			if err != nil {
				t.Fatal(err)
			}
			if res.ExecTime <= 0 {
				t.Fatal("no time elapsed")
			}
			if res.Ops != 120 {
				t.Fatalf("ops = %d", res.Ops)
			}
			if res.Sys.Ops == 0 {
				t.Fatal("no memory operations counted")
			}
			if sys == nil {
				t.Fatal("system not returned")
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, err := Run(smallCfg(mech.LRP), Spec{Structure: "nope", Threads: 1, OpsPerThread: 1}); err == nil {
		t.Fatal("bad structure accepted")
	}
	spec := smallSpec("hashmap")
	spec.Threads = 8 // exceeds the 2-core machine
	if _, _, err := Run(smallCfg(mech.LRP), spec); err == nil {
		t.Fatal("threads > cores accepted")
	}
	cfg := smallCfg(mech.LRP)
	cfg.Cores = 0
	if _, _, err := Run(cfg, smallSpec("hashmap")); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	a, _, err := Run(smallCfg(mech.BB), smallSpec("hashmap"))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(smallCfg(mech.BB), smallSpec("hashmap"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.Sys != b.Sys || a.NVM != b.NVM {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMechanismOrderingOnWorkload(t *testing.T) {
	// The headline shape on a real workload: NOP <= LRP < BB < SB.
	times := map[mech.Kind]int64{}
	for _, k := range []mech.Kind{mech.NOP, mech.LRP, mech.BB, mech.SB} {
		res, _, err := Run(smallCfg(k), smallSpec("hashmap"))
		if err != nil {
			t.Fatal(err)
		}
		times[k] = int64(res.ExecTime)
	}
	if !(times[mech.NOP] <= times[mech.LRP]) {
		t.Fatalf("NOP %d > LRP %d", times[mech.NOP], times[mech.LRP])
	}
	if !(times[mech.LRP] < times[mech.BB]) {
		t.Fatalf("LRP %d >= BB %d", times[mech.LRP], times[mech.BB])
	}
	if !(times[mech.BB] < times[mech.SB]) {
		t.Fatalf("BB %d >= SB %d", times[mech.BB], times[mech.SB])
	}
}

func TestCriticalWritebackPct(t *testing.T) {
	lrp, _, err := Run(smallCfg(mech.LRP), smallSpec("hashmap"))
	if err != nil {
		t.Fatal(err)
	}
	bb, _, err := Run(smallCfg(mech.BB), smallSpec("hashmap"))
	if err != nil {
		t.Fatal(err)
	}
	if lrp.CriticalWritebackPct() >= bb.CriticalWritebackPct() {
		t.Fatalf("Fig6 shape broken: LRP %.1f%% >= BB %.1f%%",
			lrp.CriticalWritebackPct(), bb.CriticalWritebackPct())
	}
	empty := &Result{}
	if empty.CriticalWritebackPct() != 0 {
		t.Fatal("empty result pct")
	}
}

// Workload runs under RP mechanisms keep the consistent cut — the full
// pipeline (harness + LFDs + machine) preserves the paper's guarantee.
func TestWorkloadConsistentCut(t *testing.T) {
	for _, structure := range Structures {
		structure := structure
		t.Run(structure, func(t *testing.T) {
			res, sys, err := Run(smallCfg(mech.LRP), smallSpec(structure))
			if err != nil {
				t.Fatal(err)
			}
			end := sys.Time()
			for i := engine.Time(1); i <= 8; i++ {
				crash := end * i / 8
				if v := sys.Tracker().CheckCut(crash, model.RP); v != nil {
					t.Fatalf("crash@%v: %v", crash, v[0])
				}
			}
			_ = res
		})
	}
}

func TestReadHeavyMixRuns(t *testing.T) {
	spec := smallSpec("skiplist")
	spec.ReadPct = 80
	res, _, err := Run(smallCfg(mech.LRP), spec)
	if err != nil {
		t.Fatal(err)
	}
	// A read-heavy mix persists less than the pure-update mix.
	upd, _, err := Run(smallCfg(mech.LRP), smallSpec("skiplist"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sys.Persists >= upd.Sys.Persists {
		t.Fatalf("read-heavy persists %d >= update-heavy %d", res.Sys.Persists, upd.Sys.Persists)
	}
}
