package lrp

import (
	"testing"
)

// TestCrashFuzzRPMechanisms is the repository's strongest end-to-end
// property: for every log-free structure, under every RP-enforcing
// mechanism, at every crash boundary, the durable image is a consistent
// cut (satisfying the one-sided ARP-rule too) AND the structural recovery
// walk over it is clean. This is the paper's correctness claim executed
// literally.
func TestCrashFuzzRPMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("crash fuzzing is expensive; skipped with -short")
	}
	for _, structure := range Structures {
		for _, mech := range []Mechanism{SB, BB, LRP} {
			structure, mech := structure, mech
			t.Run(structure+"/"+mech.String(), func(t *testing.T) {
				cfg := DefaultConfig().WithMechanism(mech)
				cfg.Cores = 4
				cfg.TrackHB = true
				_, m, rec, err := RunRecoverableWorkload(cfg, Spec{
					Structure:    structure,
					Threads:      4,
					InitialSize:  96,
					OpsPerThread: 60,
					Seed:         31,
				})
				if err != nil {
					t.Fatal(err)
				}
				sweep, err := SweepCrash(m, SweepOpts{Rec: rec})
				if err != nil {
					t.Fatal(err)
				}
				if sweep.RPBad != 0 {
					t.Fatalf("%v; first: %+v", sweep, sweep.FirstRP.RPViolations[0])
				}
				if sweep.ARPBad != 0 || sweep.DirtyWalks != 0 {
					t.Fatalf("%v; first dirty walk: %v", sweep, sweep.FirstDirty)
				}
			})
		}
	}
}

// TestCrashFuzzRecoveryWalks verifies null recovery structurally: at
// every crash boundary under LRP the durable image is a consistent cut,
// and the per-structure walkers accept it (no garbage nodes, no broken
// invariants). One NVM cursor advances through the boundaries, as in
// SweepCrash.
func TestCrashFuzzRecoveryWalks(t *testing.T) {
	if testing.Short() {
		t.Skip("crash fuzzing is expensive; skipped with -short")
	}
	cfg := DefaultConfig().WithMechanism(LRP)
	cfg.Cores = 4
	cfg.TrackHB = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	list := NewLinkedList(m)
	h := NewHashMap(m, 16)
	b := NewBST(m)
	sl := NewSkipList(m)
	q := NewQueue(m)
	m.RunOne(func(c *Ctx) { b.Init(c); q.Init(c) })
	progs := make([]Program, 4)
	for i := 0; i < 4; i++ {
		i := i
		progs[i] = func(c *Ctx) {
			r := c.Rand()
			for n := 0; n < 50; n++ {
				key := uint64(r.Intn(64)) + 1
				switch n % 5 {
				case 0:
					list.Insert(c, key, DefaultVal(key))
				case 1:
					h.Insert(c, key, DefaultVal(key))
				case 2:
					b.Insert(c, key, DefaultVal(key))
				case 3:
					sl.Insert(c, key, DefaultVal(key))
				case 4:
					q.Enqueue(c, uint64(i+1)<<32|uint64(n+1))
					if r.Bool() {
						list.Delete(c, key)
						q.Dequeue(c)
					}
				}
			}
		}
	}
	m.Run(progs)
	sweep, err := SweepCrash(m, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.RPBad != 0 {
		t.Fatalf("%v; first: %v", sweep, sweep.FirstRP.RPViolations[0])
	}
	t.Logf("%d crash boundaries", sweep.Boundaries)
	cur := m.NVM().NewCursor(nil)
	for _, at := range CrashBoundaries(m) {
		img := cur.AdvanceTo(at)
		for _, rec := range []Recoverable{list, h, b, sl, q} {
			if err := rec.Recover(img).Err(); err != nil {
				t.Fatalf("crash@%v: %s: %v", at, rec.Name(), err)
			}
		}
	}
}

// TestCrashFuzzUncachedMode repeats the cut check in the uncached NVM
// mode: slower persists widen every window, so ordering bugs that hide
// behind the DRAM cache surface here.
func TestCrashFuzzUncachedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("crash fuzzing is expensive; skipped with -short")
	}
	for _, mech := range []Mechanism{BB, LRP} {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			cfg := DefaultConfig().WithMechanism(mech)
			cfg.Cores = 4
			cfg.NVM.Mode = 1 // uncached
			cfg.TrackHB = true
			_, m, err := RunWorkload(cfg, Spec{
				Structure: "queue", Threads: 4, InitialSize: 64, OpsPerThread: 60, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := SweepCrash(m, SweepOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if sweep.RPBad != 0 {
				t.Fatalf("%v; first: %+v", sweep, sweep.FirstRP.RPViolations[0])
			}
		})
	}
}
