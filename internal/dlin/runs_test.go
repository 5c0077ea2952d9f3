package dlin_test

import (
	"fmt"
	"reflect"
	"testing"

	"lrp"
	"lrp/internal/dlin"
)

// TestRealRunsMatchReference checks the checker on recorded runs of the
// kv store, the skip list and the queue, under every fault injector, for
// a violating mechanism (ARP) and a clean one (LRP): NewChecker's
// schedule must equal the pairwise reference's, and a Pass swept over
// every crash boundary, fed the incremental recovery walks, must return
// the reference check's verdict at each.
func TestRealRunsMatchReference(t *testing.T) {
	bad := 0
	for _, mech := range []lrp.Mechanism{lrp.ARP, lrp.LRP} {
		for _, structure := range []string{"kv", "skiplist", "queue"} {
			t.Run(fmt.Sprintf("%s/%s", mech, structure), func(t *testing.T) {
				cfg := lrp.DefaultConfig().WithMechanism(mech)
				cfg.Cores = 4
				cfg.TrackHB = true
				cfg.Faults = lrp.EnableAllFaults(5)
				_, m, rec, h, err := lrp.RunRecoverableWorkloadHist(cfg, lrp.Spec{
					Structure: structure, Threads: 4, InitialSize: 48, OpsPerThread: 30, Seed: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				ck, err := dlin.NewChecker(h, m.Tracker())
				if err != nil {
					t.Fatal(err)
				}
				if diff := dlin.ScheduleDiff(ck); diff != "" {
					t.Fatal(diff)
				}
				p := ck.NewPass()
				images := m.CrashImages()
				for _, at := range lrp.CrashBoundaries(m) {
					rep := rec.Recover(images(at))
					got, want := p.Check(at, rep), dlin.RefCheck(ck, at, rep)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%d: pass %v, reference %v", at, got, want)
					}
					if len(want) > 0 {
						bad++
					}
				}
			})
		}
	}
	if bad == 0 {
		t.Fatal("no boundary violates: the comparison needs violations")
	}
}
