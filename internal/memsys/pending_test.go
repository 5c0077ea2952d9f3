package memsys_test

import (
	"testing"

	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/workload"
)

// TestPendingAcksDoNotAccumulate: SB, BB and FliT-SB read only the
// horizon of a thread's persist acks (CompletionSet.MaxTime), so they
// retire acks that have completed instead of keeping every ack of the
// run. A run with four times the ops must end with no more acks held
// per thread than twice the shorter run's (or 16): keeping every ack,
// the sets held 127–136 after 100 ops and 444–484 after 400.
func TestPendingAcksDoNotAccumulate(t *testing.T) {
	held := func(k mech.Kind, ops int) (most int) {
		cfg := memsys.DefaultConfig()
		cfg.Mechanism = k
		cfg.Cores = 8
		spec := workload.Spec{Structure: "hashmap", Threads: 4, InitialSize: 32, OpsPerThread: ops, Seed: 7}
		_, sys, err := workload.Run(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		for tid := 0; tid < spec.Threads; tid++ {
			most = max(most, sys.PendingLen(tid))
		}
		return most
	}
	for _, k := range []mech.Kind{mech.SB, mech.BB, mech.FliTSB} {
		short, long := held(k, 100), held(k, 400)
		if long > max(2*short, 16) {
			t.Errorf("%v: at most %d acks held per thread after 100 ops, %d after 400", k, short, long)
		}
	}
}
