package lrp

import (
	"testing"

	"lrp/internal/dlin"
	"lrp/internal/engine"
	"lrp/internal/isa"
)

// dlinCfg builds a tracked, fault-free machine config.
func dlinCfg(mech Mechanism) Config {
	cfg := DefaultConfig().WithMechanism(mech)
	cfg.Cores = 4
	cfg.TrackHB = true
	return cfg
}

var dlinSpec = Spec{Threads: 4, InitialSize: 32, OpsPerThread: 50, Seed: 7}

// dlinSweep runs structure under mech with history capture and sweeps
// every crash boundary with the durable-linearizability check on.
func dlinSweep(t *testing.T, mech Mechanism, structure string, workers int) *SweepReport {
	t.Helper()
	spec := dlinSpec
	spec.Structure = structure
	_, m, rec, h, err := RunRecoverableWorkloadHist(dlinCfg(mech), spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Updates() == 0 {
		t.Fatalf("%s/%s history recorded no updates", structure, mech)
	}
	sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Workers: workers, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.DLinChecked == 0 {
		t.Fatalf("%s/%s sweep checked no boundaries", structure, mech)
	}
	return sweep
}

// TestLRPSameLinePersistOrder replays the two skiplist runs on which
// LRP used to complete a later persist of a line before an earlier one
// that an epoch-ordering hold delayed, leaving the older content durable:
// RP-violating boundaries and durable-linearizability phantoms. The NVM
// now starts same-line persists in issue order, so both sweep clean.
func TestLRPSameLinePersistOrder(t *testing.T) {
	for _, spec := range []Spec{
		{Structure: "skiplist", Threads: 2, InitialSize: 163, OpsPerThread: 10, Seed: 7},
		{Structure: "skiplist", Threads: 2, InitialSize: 512, OpsPerThread: 30, Seed: 11},
	} {
		_, m, rec, h, err := RunRecoverableWorkloadHist(dlinCfg(LRP), spec)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if !sweep.Consistent() {
			t.Errorf("size %d seed %d: %v", spec.InitialSize, spec.Seed, sweep)
		}
	}
}

// TestDLinRPMechanismsClean: every RP-enforcing mechanism must be
// durably linearizable at EVERY crash boundary, on every structure: the
// recovered state is exactly the happens-before-closed prefix of the
// recorded history that had persisted.
func TestDLinRPMechanismsClean(t *testing.T) {
	structures := Structures
	mechs := rpMechanisms()
	if testing.Short() {
		structures = []string{"linkedlist", "queue"}
		mechs = []Mechanism{LRP, EADR}
	}
	for _, structure := range structures {
		for _, mech := range mechs {
			structure, mech := structure, mech
			t.Run(structure+"/"+mech.String(), func(t *testing.T) {
				t.Parallel()
				sweep := dlinSweep(t, mech, structure, 0)
				if sweep.DLinBad != 0 {
					t.Fatalf("%v\nfirst: %v", sweep, sweep.FirstDLin)
				}
			})
		}
	}
}

// rpMechanisms returns every registered mechanism claiming RP
// enforcement, so newly registered mechanisms are swept automatically.
func rpMechanisms() []Mechanism {
	var ks []Mechanism
	for _, k := range Mechanisms() {
		if k.EnforcesRP() {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestDLinCleanUnderTears: with torn lines, every RP-enforcing mechanism
// stays durably linearizable at every crash boundary, on the list and on
// the queue. A torn persist's words are in the crash image from the
// persist's start, so an operation whose linearizing word it carries is
// durable from then (Tracker.DurableAt); checked against the persist's
// ack instead, the recovered state held phantoms. The queue's phantoms
// name no operation, so the test also pins the cause there: some enqueue
// is durable before its ack, and each such enqueue's word is in the tear
// of its own persist, which starts at that instant. Under ARP the same
// faults must still surface the §3 gap.
func TestDLinCleanUnderTears(t *testing.T) {
	spec := Spec{Threads: 2, InitialSize: 8, OpsPerThread: 10, Seed: 1}
	run := func(t *testing.T, mech Mechanism, structure string, faults FaultConfig) (*Machine, *OpHistory, *SweepReport) {
		t.Helper()
		cfg := dlinCfg(mech)
		cfg.Faults = faults
		spec := spec
		spec.Structure = structure
		_, m, rec, h, err := RunRecoverableWorkloadHist(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Workers: 1, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return m, h, sweep
	}
	tears := FaultConfig{Seed: 1, TearProb: 0.5}
	for _, structure := range []string{"linkedlist", "queue"} {
		for _, mech := range rpMechanisms() {
			t.Run(structure+"/"+mech.String(), func(t *testing.T) {
				_, _, sweep := run(t, mech, structure, tears)
				if !sweep.Consistent() {
					t.Fatalf("%v\nfirst: %v", sweep, sweep.FirstDLin)
				}
			})
		}
	}
	t.Run("queue/cause", func(t *testing.T) {
		m, h, _ := run(t, LRP, "queue", tears)
		tr := m.Tracker()
		// acked holds every (line, ack) of the persist log: an enqueue
		// durable at none of its line's acks became durable early.
		type lineAt struct {
			line isa.Addr
			at   Time
		}
		acked := map[lineAt]bool{}
		for _, e := range m.NVM().Events() {
			acked[lineAt{e.Line, e.Done}] = true
		}
		early := 0
		for _, o := range h.Ops {
			if o.Kind != dlin.OpEnqueue || o.Lin.IsZero() {
				continue
			}
			durable := tr.DurableAt(o.Lin)
			addr, _, _ := tr.WriteInfo(o.Lin)
			if durable == engine.Infinity || acked[lineAt{addr.Line(), durable}] {
				continue
			}
			early++
			carried := false
			for _, e := range m.NVM().Events() {
				mask, torn := m.Faults().TornWords(e.Line, e.Done)
				word := uint64(addr) >> 3 & (isa.WordsPerLine - 1)
				if e.Line == addr.Line() && e.Start == durable && torn && mask&(1<<word) != 0 {
					carried = true
				}
			}
			if !carried {
				t.Fatalf("%v durable at t=%d, no ack of its line, but no torn persist carries its word from then", o, durable)
			}
		}
		if early == 0 {
			t.Fatal("no enqueue was durable before its ack: the run exercises no tear")
		}
	})
	t.Run("kv/ARP", func(t *testing.T) {
		_, _, sweep := run(t, ARP, "kv", EnableAllFaults(1))
		if sweep.DLinBad == 0 {
			t.Fatalf("ARP's gap not flagged under faults: %v", sweep)
		}
	})
}

// TestDLinDetectsARPGap pins the paper's §3 gap as a durable-
// linearizability violation: under ARP a release (the linearizing link
// CAS) can persist before the plain stores that initialized the node
// behind it, so the recovery walk drops the node — an operation that was
// acknowledged AND whose linearization persisted is missing from the
// recovered state. The checker must classify that as acked-but-lost.
func TestDLinDetectsARPGap(t *testing.T) {
	sweep := dlinSweep(t, ARP, "linkedlist", 0)
	if sweep.DLinBad == 0 {
		t.Fatalf("ARP sweep found no durable-linearizability violations: %v", sweep)
	}
	lost := 0
	for _, f := range sweep.DLinViolations {
		if f.V.Class == DLinAckedLost {
			lost++
			if f.Mechanism != "ARP" {
				t.Fatalf("finding lost its mechanism tag: %v", f)
			}
			if f.Seed != dlinSpec.Seed {
				t.Fatalf("finding lost its seed tag: %v", f)
			}
		}
	}
	if lost == 0 {
		t.Fatalf("ARP violations carried no acked-but-lost finding:\nfirst: %v", sweep.FirstDLin)
	}
	if sweep.FirstDLin == nil || sweep.FirstDLinAt != sweep.FirstDLin.At {
		t.Fatalf("first finding not surfaced: %+v", sweep)
	}
}

// TestDLinSingleInstant: CheckDurableLinearizability agrees with the
// sweep at individual instants — clean under LRP at every boundary
// prefix, and reproducing the sweep's first ARP finding at its instant.
func TestDLinSingleInstant(t *testing.T) {
	spec := dlinSpec
	spec.Structure = "linkedlist"
	_, m, rec, h, err := RunRecoverableWorkloadHist(dlinCfg(ARP), spec)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.FirstDLin == nil {
		t.Fatal("ARP sweep produced no finding to reproduce")
	}
	vs, err := CheckDurableLinearizability(m, rec, h, sweep.FirstDLinAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatalf("single-instant check at t=%d found nothing; sweep found %v",
			sweep.FirstDLinAt, sweep.FirstDLin)
	}
	if vs[0] != sweep.FirstDLin.V {
		t.Fatalf("single-instant check disagrees with sweep:\n  check: %v\n  sweep: %v",
			vs[0], sweep.FirstDLin.V)
	}
}

// TestDLinRequiresTracking: the checker must refuse a history recorded
// without happens-before tracking, and a sweep must refuse a history
// without a Recoverable.
func TestDLinRequiresTracking(t *testing.T) {
	cfg := dlinCfg(LRP)
	cfg.TrackHB = false
	spec := dlinSpec
	spec.Structure = "linkedlist"
	_, m, rec, h, err := RunRecoverableWorkloadHist(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h}); err == nil {
		t.Fatal("sweep accepted an untracked machine")
	}
	_, m2, rec2, h2, err := RunRecoverableWorkloadHist(dlinCfg(LRP), spec)
	if err != nil {
		t.Fatal(err)
	}
	_ = rec2
	if _, err := SweepCrash(m2, SweepOpts{Hist: h2}); err == nil {
		t.Fatal("sweep accepted a history without a Recoverable")
	}
}

// TestDLinInstrumentationInvariant: history capture must not perturb the
// simulation — same config and spec, with and without instrumentation,
// produce identical execution times and op counts.
func TestDLinInstrumentationInvariant(t *testing.T) {
	spec := dlinSpec
	spec.Structure = "skiplist"
	res1, m1, _, err := RunRecoverableWorkload(dlinCfg(LRP), spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, m2, _, h, err := RunRecoverableWorkloadHist(dlinCfg(LRP), spec)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Time() != m2.Time() || res1.ExecTime != res2.ExecTime {
		t.Fatalf("instrumentation changed timing: %v/%v vs %v/%v",
			m1.Time(), res1.ExecTime, m2.Time(), res2.ExecTime)
	}
	if res1.Sys != res2.Sys {
		t.Fatalf("instrumentation changed machine counters")
	}
	if len(h.Ops) == 0 {
		t.Fatal("instrumented run recorded no operations")
	}
}
