// Cross-mechanism conformance suite: every mechanism registered in this
// package — including out-of-tree additions — must satisfy the same
// contract the paper's five are held to. The suite drives each mechanism
// through the public lrp API (an external test package, so it sees
// exactly what a user of the registry sees):
//
//   - every registered Kind builds a machine, and an unregistered one is
//     rejected;
//   - every durable-state boundary of a real workload is swept, and
//     RP-enforcing mechanisms must leave a consistent cut with a clean
//     recovery walk at all of them;
//   - a drained machine is fully durable under every mechanism;
//   - mechanisms that own their durable image (NewCrashCursor != nil)
//     must reconstruct it identically whether the cursor is advanced
//     incrementally or replayed fresh;
//   - the message-passing litmus: any crash image showing the release
//     flag must also show the data it publishes.
package mech_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lrp"
	"lrp/internal/mech"
	"lrp/internal/mm"
	"lrp/internal/trace"
)

func conformanceConfig(k mech.Kind) lrp.Config {
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = 2
	cfg.TrackHB = true
	return cfg
}

func conformanceSpec() lrp.Spec {
	return lrp.Spec{
		Structure: "linkedlist", Threads: 2, InitialSize: 16, OpsPerThread: 25, Seed: 9,
	}
}

// TestRegistryCoversAllKinds holds what the one registration table can
// still get wrong: every kind must build a machine, and an unregistered
// kind must be rejected both by Config.Validate and by the trace header
// decoder, which check the same Kind.Valid.
func TestRegistryCoversAllKinds(t *testing.T) {
	for _, k := range mech.Kinds() {
		if _, err := lrp.NewMachine(conformanceConfig(k)); err != nil {
			t.Fatalf("NewMachine(%v): %v", k, err)
		}
	}
	bad := mech.Kind(len(mech.Kinds()))
	if err := lrp.DefaultConfig().WithMechanism(bad).Validate(); err == nil {
		t.Fatalf("Config.Validate accepted unregistered %v", bad)
	}
	h := trace.HeaderFor(conformanceConfig(mech.NOP), conformanceSpec())
	h.Mechanism = bad
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewReader(&buf); err == nil || !strings.Contains(err.Error(), "bad mechanism") {
		t.Fatalf("trace header with unregistered %v: err = %v, want a bad-mechanism rejection", bad, err)
	}
}

// TestEADRMatchesNOP holds eADR to its timing claim: it keeps all of
// NOP's timing hooks, so every workload's measured window, and the
// clean-shutdown drain after it, must come out identical under the two,
// with happens-before tracking on and off.
func TestEADRMatchesNOP(t *testing.T) {
	for _, w := range lrp.WorkloadNames() {
		for _, track := range []bool{false, true} {
			w, track := w, track
			t.Run(fmt.Sprintf("%s/track=%v", w, track), func(t *testing.T) {
				t.Parallel()
				run := func(k mech.Kind) []any {
					cfg := lrp.DefaultConfig().WithMechanism(k)
					cfg.Cores = 4
					cfg.TrackHB = track
					res, m, err := lrp.RunWorkload(cfg, lrp.Spec{
						Structure: w, Threads: 4, InitialSize: 256, OpsPerThread: 50, Seed: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					drained := m.Drain()
					return []any{res, drained, m.Stats(), m.NVM().Stats()}
				}
				nop, eadr := run(mech.NOP), run(mech.EADR)
				for i, what := range []string{"window result", "drain time", "machine stats", "NVM stats"} {
					if !reflect.DeepEqual(nop[i], eadr[i]) {
						t.Fatalf("%s differs:\nNOP  %+v\neADR %+v", what, nop[i], eadr[i])
					}
				}
			})
		}
	}
}

// TestSweepConformance is the core contract: crash the machine at every
// durable-state boundary of a real workload. RP-enforcing mechanisms
// must show zero RP violations and a clean recovery walk everywhere;
// every mechanism must at least survive the sweep machinery.
func TestSweepConformance(t *testing.T) {
	for _, k := range mech.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			_, m, rec, err := lrp.RunRecoverableWorkload(conformanceConfig(k), conformanceSpec())
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{Rec: rec, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if sweep.Boundaries == 0 || sweep.WalksRun != sweep.Boundaries {
				t.Fatalf("sweep did no work: %v", sweep)
			}
			if k.EnforcesRP() && !sweep.Consistent() {
				t.Fatalf("%v is registered as RP-enforcing but failed the sweep: %v", k, sweep)
			}
		})
	}
}

// TestDrainConformance: after Machine.Drain every acked store is durable
// under every mechanism — even the baselines — so the recovery walk over
// the final crash image must return the complete structure, and it must
// agree with the NVM subsystem's architectural final image.
func TestDrainConformance(t *testing.T) {
	for _, k := range mech.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			m, err := lrp.NewMachine(conformanceConfig(k))
			if err != nil {
				t.Fatal(err)
			}
			l := lrp.NewLinkedList(m)
			m.Run([]lrp.Program{func(c *lrp.Ctx) {
				for key := uint64(1); key <= 20; key++ {
					l.Insert(c, key, lrp.DefaultVal(key))
				}
			}})
			m.Drain()
			horizon := m.Time() + 1<<20
			check := func(name string, img *mm.Memory) {
				rec := l.Recover(img)
				if err := rec.Err(); err != nil {
					t.Fatalf("%s image: %v", name, err)
				}
				if len(rec.Set.Members) != 20 {
					t.Fatalf("%s image: recovered %d/20 members after drain", name, len(rec.Set.Members))
				}
			}
			check("crash", m.CrashImageAt(horizon))
			check("final", m.NVM().FinalImage(nil))
		})
	}
}

// TestCursorIncrementalConformance: a mechanism that owns its durable
// image must reconstruct the same bytes whether one cursor is advanced
// through ascending boundaries or a fresh cursor replays to each
// boundary from scratch — the crash sweep depends on that equivalence.
func TestCursorIncrementalConformance(t *testing.T) {
	tested := 0
	for _, k := range mech.Kinds() {
		_, m, err := lrp.RunWorkload(conformanceConfig(k), conformanceSpec())
		if err != nil {
			t.Fatal(err)
		}
		inc := m.MechCrashCursor()
		if inc == nil {
			continue
		}
		tested++
		bounds := lrp.CrashBoundaries(m)
		img := mm.NewMemory()
		for i, at := range bounds {
			if i%16 != 0 && i != len(bounds)-1 {
				continue
			}
			inc.ApplyTo(img, at)
			fresh := mm.NewMemory()
			m.MechCrashCursor().ApplyTo(fresh, at)
			if !img.Equal(fresh) {
				t.Fatalf("%v: incremental image diverges from fresh replay at t=%d", k, at)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no mechanism exercises the image-owning cursor path (eADR should)")
	}
}

// TestMessagePassingLitmus: the publication idiom the RP definition is
// built around. A crash image that shows the released flag must show the
// data written before it, at every boundary, under every RP mechanism.
func TestMessagePassingLitmus(t *testing.T) {
	for _, k := range mech.Kinds() {
		if !k.EnforcesRP() {
			continue
		}
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			m, err := lrp.NewMachine(conformanceConfig(k))
			if err != nil {
				t.Fatal(err)
			}
			data := m.StaticAlloc(8) // separate lines: 8 words each
			flag := m.StaticAlloc(8)
			m.Run([]lrp.Program{func(c *lrp.Ctx) {
				c.Store(data, 42)
				c.StoreRel(flag, 1)
			}})
			m.Drain()
			for _, at := range lrp.CrashBoundaries(m) {
				rep, err := lrp.Crash(m, at)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.ConsistentCut() {
					t.Fatalf("inconsistent cut at t=%d: %v", at, rep.RPViolations)
				}
				if rep.Image.Read(flag) == 1 && rep.Image.Read(data) != 42 {
					t.Fatalf("flag durable without its data at t=%d", at)
				}
			}
		})
	}
}

// TestDLinConformance extends the sweep contract to durable
// linearizability: every RP-enforcing mechanism — including out-of-tree
// registrations — must recover a happens-before-closed linearization
// prefix of the recorded operation history at every crash boundary.
func TestDLinConformance(t *testing.T) {
	for _, k := range mech.Kinds() {
		if !k.EnforcesRP() {
			continue
		}
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			_, m, rec, h, err := lrp.RunRecoverableWorkloadHist(conformanceConfig(k), conformanceSpec())
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{Rec: rec, Hist: h, Seed: conformanceSpec().Seed})
			if err != nil {
				t.Fatal(err)
			}
			if sweep.DLinChecked != sweep.Boundaries {
				t.Fatalf("dlin checked %d of %d boundaries: %v", sweep.DLinChecked, sweep.Boundaries, sweep)
			}
			if !sweep.Consistent() {
				t.Fatalf("%v is registered as RP-enforcing but lost operations: %v\nfirst: %v",
					k, sweep, sweep.FirstDLin)
			}
		})
	}
}

// TestDLinSweepDeterminism: the merged sweep report — including the
// capped violation list — must be byte-identical at any worker count.
// LRP exercises the clean path; ARP the finding-heavy path (its capped
// list is where a merge-order bug would show).
func TestDLinSweepDeterminism(t *testing.T) {
	for _, k := range []mech.Kind{lrp.LRP, lrp.ARP} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			_, m, rec, h, err := lrp.RunRecoverableWorkloadHist(conformanceConfig(k), conformanceSpec())
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, workers := range []int{1, 2, 8} {
				sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{
					Rec: rec, Hist: h, Workers: workers, Seed: conformanceSpec().Seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sweep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("%v sweep export differs between -parallel 1 and -parallel %d:\n%s\nvs\n%s",
						k, workers, want, buf.Bytes())
				}
			}
		})
	}
}
