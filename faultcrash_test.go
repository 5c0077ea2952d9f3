package lrp

import (
	"fmt"
	"slices"
	"testing"

	"lrp/internal/model"
)

// faultCfg builds a tracked machine config with every fault injector on.
func faultCfg(mech Mechanism, faultSeed uint64) Config {
	cfg := DefaultConfig().WithMechanism(mech)
	cfg.Cores = 4
	cfg.TrackHB = true
	cfg.Faults = EnableAllFaults(faultSeed)
	return cfg
}

var faultSpec = Spec{Threads: 4, InitialSize: 64, OpsPerThread: 50, Seed: 31}

// TestFaultSweepRPMechanisms is the hardened version of the repository's
// strongest property: with torn lines, transient NVM faults and
// persist-engine stalls all injected, every RP-enforcing mechanism must
// leave a consistent cut at EVERY persist-completion boundary (not a
// sample — the exhaustive scheduler), and the hardened recovery walk over
// every one of those images — word-granularity tearing included — must
// quarantine nothing.
func TestFaultSweepRPMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive crash sweeps are expensive; skipped with -short")
	}
	for _, structure := range Structures {
		for _, mech := range []Mechanism{SB, BB, LRP} {
			structure, mech := structure, mech
			t.Run(structure+"/"+mech.String(), func(t *testing.T) {
				spec := faultSpec
				spec.Structure = structure
				_, m, rec, err := RunRecoverableWorkload(faultCfg(mech, 9), spec)
				if err != nil {
					t.Fatal(err)
				}
				sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if sweep.Boundaries < 3 {
					t.Fatalf("sweep saw only %d boundaries", sweep.Boundaries)
				}
				if sweep.RPBad != 0 {
					t.Fatalf("%v; first: %+v", sweep, sweep.FirstRP.RPViolations[0])
				}
				if sweep.DirtyWalks != 0 {
					t.Fatalf("%v; first dirty at t=%v: %v (%v)",
						sweep, sweep.FirstDirtyAt, sweep.FirstDirty, sweep.FirstDirty.Err())
				}
			})
		}
	}
}

// TestFaultSweepFindsARPGap: the same harness, same faults, under ARP
// must still surface the paper's §3 gap — RP-violating boundaries whose
// images the recovery walk cannot fully accept.
func TestFaultSweepFindsARPGap(t *testing.T) {
	spec := faultSpec
	spec.Structure = "linkedlist"
	spec.OpsPerThread = 60
	_, m, rec, err := RunRecoverableWorkload(faultCfg(ARP, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.RPBad == 0 {
		t.Fatalf("ARP sweep found no RP violations: %v", sweep)
	}
	if sweep.ARPBad != 0 {
		t.Fatalf("ARP violated its own one-sided rule: %v", sweep)
	}
	if sweep.DirtyWalks == 0 || sweep.Quarantined == 0 {
		t.Fatalf("ARP gap left every recovery walk clean: %v", sweep)
	}
}

// TestFaultSweepFindsNOPGap: with no persistency enforcement and an LLC
// small enough to evict, writes persist in eviction order and the sweep
// must find inconsistent boundaries.
func TestFaultSweepFindsNOPGap(t *testing.T) {
	cfg := faultCfg(NOP, 1)
	cfg.LLCSize = 4 << 10 // force LLC evictions: NOP persists only then
	cfg.LLCWays = 4
	cfg.LLCBanks = 4
	spec := faultSpec
	spec.Structure = "linkedlist"
	spec.InitialSize = 128
	spec.OpsPerThread = 150
	_, m, rec, err := RunRecoverableWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.RPBad == 0 {
		t.Fatalf("NOP sweep found no RP violations: %v", sweep)
	}
}

// TestFaultInjectionDeterministic: two machines with identical configs —
// fault seeds included — execute cycle-for-cycle identically and report
// identical fault accounting. Determinism is the fault plane's contract:
// a failing seed replays exactly.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (Time, *SweepReport, [4]uint64) {
		spec := faultSpec
		spec.Structure = "hashmap"
		_, m, rec, err := RunRecoverableWorkload(faultCfg(LRP, 1234), spec)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		nst := m.NVM().Stats()
		fst := m.FaultStats()
		return m.Time(), sweep, [4]uint64{nst.Retries, nst.BackoffCycles, fst.Stalls, fst.StallCycles}
	}
	t1, s1, c1 := run()
	t2, s2, c2 := run()
	if t1 != t2 {
		t.Fatalf("execution times diverged: %v vs %v", t1, t2)
	}
	if s1.Boundaries != s2.Boundaries || s1.RPBad != s2.RPBad || s1.DirtyWalks != s2.DirtyWalks {
		t.Fatalf("sweeps diverged: %v vs %v", s1, s2)
	}
	if c1 != c2 {
		t.Fatalf("fault counters diverged: %v vs %v", c1, c2)
	}
	if c1[0] == 0 && c1[2] == 0 {
		t.Fatal("no faults injected: the determinism check is vacuous")
	}
}

// TestFaultSeedChangesExecution: a different fault seed must actually
// change the machine's timing (stalls land elsewhere) — guarding against
// the plane silently decoupling from the execution.
func TestFaultSeedChangesExecution(t *testing.T) {
	times := map[Time]bool{}
	for _, seed := range []uint64{1, 2, 3, 4} {
		spec := faultSpec
		spec.Structure = "linkedlist"
		_, m, err := RunWorkload(faultCfg(LRP, seed), spec)
		if err != nil {
			t.Fatal(err)
		}
		times[m.Time()] = true
	}
	if len(times) == 1 {
		t.Fatal("four fault seeds produced identical execution times")
	}
}

// TestCrashRecoverAttachesReport: CrashRecover must attach the hardened
// walk to the crash report and leave it clean under LRP.
func TestCrashRecoverAttachesReport(t *testing.T) {
	spec := faultSpec
	spec.Structure = "queue"
	_, m, rec, err := RunRecoverableWorkload(faultCfg(LRP, 5), spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CrashRecover(m, rec, m.Time()/2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery == nil {
		t.Fatal("CrashRecover left Recovery nil")
	}
	if !rep.Recovery.Clean() {
		t.Fatalf("LRP crash image did not recover cleanly: %v", rep.Recovery)
	}
	if rec.Name() != "queue" {
		t.Fatalf("recoverable names %q", rec.Name())
	}
}

// TestSweepCellSeed: the crash-sweep tables tag their sweeps with the
// experiment seed, so a failing cell's report names the seed that
// reproduces it.
func TestSweepCellSeed(t *testing.T) {
	o := ExperimentOpts{Threads: 2, Ops: 10, SizeScale: 0.02, Seed: 7, SeedSet: true}.withDefaults()
	for _, faults := range []bool{true, false} {
		r, err := o.sweepCell("hashmap", ARP, faults)
		if err != nil {
			t.Fatal(err)
		}
		if r.sweep.Seed != 7 {
			t.Fatalf("faults=%v: sweep tagged seed=%d, want 7: %v", faults, r.sweep.Seed, r.sweep)
		}
	}
}

// TestLRPEngineStallPersistOrder pins two runs in which a persist-engine
// stall left an ack in flight past the owner's clock, and a downgrade
// then ran the owner's engine at the requester's earlier clock. The
// engine must still wait for that ack before persisting a release;
// otherwise a write persists before its po-before-release predecessor.
func TestLRPEngineStallPersistOrder(t *testing.T) {
	stallOnly := DefaultConfig().WithMechanism(LRP)
	stallOnly.Cores = 4
	stallOnly.TrackHB = true
	stallOnly.Faults = FaultConfig{Seed: 1, StallProb: 0.1}
	for _, c := range []struct {
		cfg  Config
		spec Spec
	}{
		{stallOnly, Spec{Structure: "bstree", Threads: 4, InitialSize: 32, OpsPerThread: 20, Seed: 261}},
		{faultCfg(LRP, 1), Spec{Structure: "hashmap", Threads: 4, InitialSize: 32, OpsPerThread: 20, Seed: 136}},
	} {
		_, m, rec, err := RunRecoverableWorkload(c.cfg, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Seed: c.spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if !sweep.Consistent() {
			t.Errorf("%s seed %d: %v", c.spec.Structure, c.spec.Seed, sweep)
		}
	}
}

// faultMatrix runs f on a recoverable run of every structure (kv
// included) under every mechanism, with every fault injector on at fault
// seeds 1–3 (seed 1 only with -short): 4 threads, 64 keys, 40 ops each.
func faultMatrix(t *testing.T, f func(t *testing.T, m *Machine, rec Recoverable)) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, structure := range append(append([]string(nil), Structures...), "kv") {
		for _, mech := range Mechanisms() {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", structure, mech, seed), func(t *testing.T) {
					_, m, rec, err := RunRecoverableWorkload(faultCfg(mech, seed), Spec{
						Structure: structure, Threads: 4, InitialSize: 64, OpsPerThread: 40, Seed: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					f(t, m, rec)
				})
			}
		}
	}
}

// TestDirtyWalksAreRPBad: the paper's claim, boundary by boundary. A
// crash image that is a consistent cut under RP recovers cleanly, so
// every boundary whose recovery walk is dirty must be RP-inconsistent.
// Under tearing this holds only if the cut check and the image agree on
// when a write became durable (model.Tracker.DurableAt).
func TestDirtyWalksAreRPBad(t *testing.T) {
	faultMatrix(t, func(t *testing.T, m *Machine, rec Recoverable) {
		rp := m.Tracker().NewHBNeed().CutSchedule(model.RP)
		images := m.CrashImages()
		var r *RecoveryReport
		dirty, clean := 0, 0
		first := Time(-1)
		for _, at := range CrashBoundaries(m) {
			if img := images(at); r == nil || img.Touched() {
				r = rec.Recover(img)
			}
			if r.Clean() {
				continue
			}
			dirty++
			if !rp.Bad(at) {
				clean++
				if first < 0 {
					first = at
				}
			}
		}
		if clean > 0 {
			t.Fatalf("%d of %d dirty boundaries are RP-consistent; first at t=%d", clean, dirty, first)
		}
	})
}

// TestCrashBoundariesComplete: the crash image at any instant equals the
// image at the last boundary at or before it. Probes are every persist's
// start and ack ±1 and the midpoint of every gap between boundaries,
// under every fault injector, tearing included. eADR is left out: its
// durable image is held by the mechanism, and between its release and
// drain instants plain stores change the image without a boundary
// (every such prefix is consistent by construction; see
// Mechanism.CrashInstants).
func TestCrashBoundariesComplete(t *testing.T) {
	faultMatrix(t, func(t *testing.T, m *Machine, _ Recoverable) {
		if m.MechCrashCursor() != nil {
			t.Skip("mechanism-held durable image")
		}
		bounds := CrashBoundaries(m)
		var probes []Time
		for _, e := range m.NVM().Events() {
			for _, at := range []Time{e.Start, e.Done} {
				probes = append(probes, at-1, at, at+1)
			}
		}
		for i := 1; i < len(bounds); i++ {
			probes = append(probes, (bounds[i-1]+bounds[i])/2)
		}
		slices.Sort(probes)
		probes = slices.Compact(probes)
		atBound, atProbe := m.CrashImages(), m.CrashImages()
		b := 0
		for _, p := range probes {
			if p < bounds[0] || p > bounds[len(bounds)-1] {
				continue
			}
			for b+1 < len(bounds) && bounds[b+1] <= p {
				b++
			}
			if !atProbe(p).Equal(atBound(bounds[b])) {
				t.Fatalf("image at t=%d differs from the image at boundary t=%d", p, bounds[b])
			}
		}
	})
}
