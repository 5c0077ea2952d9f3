package lrp

import (
	"strings"
	"testing"
)

// tinyOpts shrinks the experiments to unit-test scale.
var tinyOpts = ExperimentOpts{Threads: 2, Ops: 15, SizeScale: 0.01, Seed: 3, Cores: 2}

func tinyConfig(k Mechanism) Config {
	cfg := DefaultConfig().WithMechanism(k)
	cfg.Cores = 2
	cfg.TrackHB = true
	return cfg
}

func TestPublicWorkloadRun(t *testing.T) {
	res, m, err := RunWorkload(tinyConfig(LRP), Spec{
		Structure: "hashmap", Threads: 2, InitialSize: 64, OpsPerThread: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 || res.Ops != 60 {
		t.Fatalf("result: %+v", res)
	}
	// Crash analysis through the public API.
	rep, err := Crash(m, m.Time()/2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ConsistentCut() {
		t.Fatalf("LRP left an inconsistent cut: %v", rep.RPViolations)
	}
	if rep.TotalWrites == 0 || rep.Image == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

func TestCrashRequiresTracking(t *testing.T) {
	cfg := tinyConfig(LRP)
	cfg.TrackHB = false
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Crash(m, 0); err == nil {
		t.Fatal("expected error without TrackHB")
	}
	if _, err := SweepCrash(m, SweepOpts{}); err == nil {
		t.Fatal("expected error without TrackHB")
	}
}

func TestFuzzCrashesARPGap(t *testing.T) {
	// Under ARP, the crash sweep finds RP violations but no ARP-rule
	// violations; under LRP, neither.
	run := func(k Mechanism) (int, int) {
		_, m, err := RunWorkload(tinyConfig(k), Spec{
			Structure: "linkedlist", Threads: 2, InitialSize: 16, OpsPerThread: 40, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepCrash(m, SweepOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if sweep.RPBad > 0 && sweep.FirstRP == nil {
			t.Fatal("missing first violation report")
		}
		return sweep.RPBad, sweep.ARPBad
	}
	rp, arp := run(ARP)
	if rp == 0 {
		t.Fatal("ARP should leave RP-violating crash windows")
	}
	if arp != 0 {
		t.Fatalf("ARP mechanism violated its own rule %d times", arp)
	}
	rp, arp = run(LRP)
	if rp != 0 || arp != 0 {
		t.Fatalf("LRP violated: rp=%d arp=%d", rp, arp)
	}
}

func TestPublicRecoveryRoundTrip(t *testing.T) {
	cfg := tinyConfig(LRP)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLinkedList(m)
	m.Run([]Program{func(c *Ctx) {
		for k := uint64(1); k <= 20; k++ {
			l.Insert(c, k, DefaultVal(k))
		}
		l.Delete(c, 7)
	}})
	m.Drain()
	rep := l.Recover(m.NVM().FinalImage(nil))
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rec := rep.Set
	if len(rec.Members) != 19 || rec.Members[8] != DefaultVal(8) {
		t.Fatalf("recovered %d members", len(rec.Members))
	}
	if _, present := rec.Members[7]; present {
		t.Fatal("deleted key recovered")
	}
}

func TestPublicRecoveryAllStructures(t *testing.T) {
	cfg := tinyConfig(LRP)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHashMap(m, 8)
	b := NewBST(m)
	sl := NewSkipList(m)
	q := NewQueue(m)
	m.RunOne(func(c *Ctx) {
		b.Init(c)
		q.Init(c)
		for k := uint64(1); k <= 10; k++ {
			h.Insert(c, k, DefaultVal(k))
			b.Insert(c, k, DefaultVal(k))
			sl.Insert(c, k, DefaultVal(k))
			q.Enqueue(c, k)
		}
	})
	m.Drain()
	img := m.NVM().FinalImage(nil)
	for _, s := range []Set{h, b, sl} {
		if rep := s.Recover(img); rep.Err() != nil || len(rep.Set.Members) != 10 {
			t.Fatalf("%s: %v %v", s.Name(), rep, rep.Err())
		}
	}
	if rep := q.Recover(img); rep.Err() != nil || len(rep.Queue.Values) != 10 {
		t.Fatalf("queue: %v %v", rep, rep.Err())
	}
}

func TestParseMechanism(t *testing.T) {
	k, err := ParseMechanism("LRP")
	if err != nil || k != LRP {
		t.Fatal("ParseMechanism")
	}
	if _, err := ParseMechanism("XXX"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestFig5Tiny(t *testing.T) {
	tab, err := Fig5(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Format()
	for _, s := range Structures {
		if !strings.Contains(out, s) {
			t.Fatalf("missing %s:\n%s", s, out)
		}
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestFig6Tiny(t *testing.T) {
	tab, err := Fig6(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	cols := 1 // workload + one column per headline mechanism
	for _, k := range Mechanisms() {
		if k.Headline() {
			cols++
		}
	}
	if len(tab.Rows) != 5 || len(tab.Header) != cols {
		t.Fatalf("shape: %+v", tab.Header)
	}
}

func TestFig7Tiny(t *testing.T) {
	tab, err := Fig7(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Title, "uncached") {
		t.Fatal("wrong title")
	}
}

func TestFig8Tiny(t *testing.T) {
	tab, err := Fig8(tinyOpts, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestSizeSensitivityTiny(t *testing.T) {
	tab, err := SizeSensitivity(tinyOpts, 0.01, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestAblationsTiny(t *testing.T) {
	if tab, err := AblationRET(tinyOpts, 2, 8); err != nil || len(tab.Rows) != 4 {
		t.Fatalf("RET ablation: %v", err)
	}
	if tab, err := AblationReadMix(tinyOpts, 0, 90); err != nil || len(tab.Rows) != 2 {
		t.Fatalf("read-mix ablation: %v", err)
	}
}

func TestTable1(t *testing.T) {
	out := Table1().Format()
	for _, want := range []string{"64-core", "32KB", "MESI", "120cy", "350cy", "32 entries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestMechanismList(t *testing.T) {
	ks := Mechanisms()
	if len(Structures) != 5 {
		t.Fatal("structures")
	}
	// The paper's five in registration order, then the extensions.
	want := []Mechanism{NOP, SB, BB, ARP, LRP, EADR, FliTSB}
	if len(ks) != len(want) {
		t.Fatalf("mechanisms: got %v", ks)
	}
	for i, k := range want {
		if ks[i] != k {
			t.Fatalf("mechanism %d: got %v want %v", i, ks[i], k)
		}
	}
	for _, k := range ks {
		got, err := ParseMechanism(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseMechanism(%q) = %v, %v", k.String(), got, err)
		}
	}
	if names := MechanismNames(); len(names) != len(ks) || names[5] != "eADR" || names[6] != "FliT-SB" {
		t.Fatalf("names: %v", MechanismNames())
	}
}
