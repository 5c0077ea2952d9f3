package lrp

import (
	"testing"

	"lrp/internal/dlin"
)

// FuzzCrashRecovery is the native fuzz entry over the crash-recovery
// property: for ANY (workload seed, crash instant, fault mask), an
// RP-enforcing mechanism must leave a consistent cut at the crash and the
// hardened recovery walk over the reconstructed image — torn lines
// included — must quarantine nothing.
//
//	go test -fuzz FuzzCrashRecovery -fuzztime 30s
//
// The seed corpus under testdata/fuzz/FuzzCrashRecovery pins the
// interesting corners (every injector on/off, crash at 0, crash past the
// last ack, each mechanism including the registry extensions eADR and
// FliT-SB) and runs as plain unit tests in every `go test`.
func FuzzCrashRecovery(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(1<<40), uint64(0xF))
	f.Add(uint64(7), uint64(12345), uint64(0x31))
	f.Add(uint64(14), uint64(999999), uint64(0x8))
	f.Add(uint64(3), uint64(777), uint64(0x3))     // eADR, torn + rejected writes
	f.Add(uint64(9), uint64(424242), uint64(0x19)) // FliT-SB, tearing + seeded stalls
	f.Fuzz(func(t *testing.T, seed, crashSel, faultMask uint64) {
		mech := []Mechanism{SB, BB, LRP, EADR, FliTSB}[seed%5]
		structure := Structures[(seed>>2)%uint64(len(Structures))]

		cfg := DefaultConfig().WithMechanism(mech)
		cfg.Cores = 4
		cfg.TrackHB = true
		// Low bits of the mask pick the injectors, the rest seeds them.
		cfg.Faults = FaultConfig{Seed: faultMask>>4 | 1}
		if faultMask&1 != 0 {
			cfg.Faults.TearProb = 0.5
		}
		if faultMask&2 != 0 {
			cfg.Faults.WriteFaultProb = 0.05
		}
		if faultMask&4 != 0 {
			cfg.Faults.ReadFaultProb = 0.05
		}
		if faultMask&8 != 0 {
			cfg.Faults.StallProb = 0.1
			cfg.Faults.StallMax = 2000
		}

		_, m, rec, err := RunRecoverableWorkload(cfg, Spec{
			Structure:    structure,
			Threads:      2,
			InitialSize:  24,
			OpsPerThread: 12,
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}

		at := Time(crashSel % uint64(crashHorizon(m)+1))
		rep, err := CrashRecover(m, rec, at)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.ConsistentCut() {
			t.Fatalf("%s/%s: crash at t=%v violates RP: %v",
				mech, structure, at, rep.RPViolations[0])
		}
		if !rep.Recovery.Clean() {
			t.Fatalf("%s/%s: dirty recovery at t=%v: %v (%v)",
				mech, structure, at, rep.Recovery, rep.Recovery.Err())
		}

		// After a clean shutdown the walk must recover the final image in
		// full — retries, giveups and stalls may delay persists but never
		// lose them.
		if err := rec.Recover(m.NVM().FinalImage(nil)).Err(); err != nil {
			t.Fatalf("%s/%s: recovery of the final image failed: %v",
				mech, structure, err)
		}
	})
}

// FuzzDLinHistory fuzzes the durable-linearizability checker itself:
// record a real history, then corrupt one durable acknowledged update so
// the history claims an effect the machine never produced — exactly the
// disagreement an acked-but-lost persist-order bug creates between the
// history and the recovered state. The sweep must flag it; a checker that
// stays silent on an injected loss would silently pass the mechanisms it
// is meant to police.
func FuzzDLinHistory(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(3))
	f.Add(uint64(4), uint64(1))
	f.Add(uint64(7), uint64(9))
	f.Add(uint64(16), uint64(2)) // queue history: enqueue-value mutation
	f.Fuzz(func(t *testing.T, seed, pick uint64) {
		mech := []Mechanism{SB, BB, LRP, EADR, FliTSB}[seed%5]
		structure := Structures[(seed>>2)%uint64(len(Structures))]

		cfg := DefaultConfig().WithMechanism(mech)
		cfg.Cores = 4
		cfg.TrackHB = true
		_, m, rec, hist, err := RunRecoverableWorkloadHist(cfg, Spec{
			Structure:    structure,
			Threads:      2,
			InitialSize:  16,
			OpsPerThread: 10,
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Eligible mutation sites are the ops whose corrupted claim is
		// guaranteed to contradict the final image: a durable enqueue
		// (queue compare is positional) or a durable successful insert that
		// is the last update on its key, so the key survives to the end and
		// rewriting it strands the real key as a phantom.
		horizon := crashHorizon(m)
		tr := m.Tracker()
		last := map[uint64]int{}
		if !hist.Queue() {
			for i, o := range hist.Ops {
				if o.OK && o.Kind.Mutates() && !o.Lin.IsZero() {
					last[o.Key] = i
				}
			}
		}
		var eligible []int
		var maxArg uint64
		for i, o := range hist.Ops {
			if o.Key > maxArg {
				maxArg = o.Key
			}
			if o.Val > maxArg {
				maxArg = o.Val
			}
			if !o.OK || o.Lin.IsZero() || tr.PersistedAt(o.Lin) > horizon {
				continue
			}
			switch {
			case hist.Queue() && o.Kind == dlin.OpEnqueue:
				eligible = append(eligible, i)
			case !hist.Queue() && o.Kind == dlin.OpInsert && last[o.Key] == i:
				eligible = append(eligible, i)
			}
		}
		if len(eligible) == 0 {
			t.Skip("history has no unambiguous mutation site")
		}

		o := &hist.Ops[eligible[pick%uint64(len(eligible))]]
		fresh := maxArg + 1 + pick%8 // never appears elsewhere in the history
		if hist.Queue() {
			o.Val = fresh
		} else {
			o.Key = fresh
		}

		sweep, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: hist, Workers: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if sweep.DLinBad == 0 {
			t.Fatalf("%s/%s seed=%d: sweep missed the injected corruption of %v (checked %d boundaries)",
				mech, structure, seed, *o, sweep.DLinChecked)
		}
	})
}
