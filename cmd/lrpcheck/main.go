// Command lrpcheck is the crash-consistency checker: it runs a workload
// under a chosen persistency mechanism with happens-before tracking on,
// then crashes the machine at every durable-state boundary (each persist
// completion, ±1 cycle). At each boundary it checks the consistent-cut
// criterion for null recovery (Release Persistency) and the weaker
// ARP-rule, and runs a hardened recovery walk over the reconstructed NVM
// image.
//
// The paper's central claims fall out directly:
//
//	lrpcheck -mechanism LRP   # 0 RP violations, every recovery walk clean
//	lrpcheck -mechanism ARP   # RP violations and dirty walks, 0 ARP violations
//	lrpcheck -mechanism NOP   # both violated freely
//
// Beyond structural checks, -dlin records the run's abstract operation
// history and verifies durable linearizability at every crash boundary:
// the recovered contents must be a happens-before-closed linearization
// prefix of the history. This is the check that catches the ARP gap as
// a concrete lost operation rather than a cut violation:
//
//	lrpcheck -dlin -mechanism LRP   # every boundary durably linearizable
//	lrpcheck -dlin -mechanism ARP   # acked-but-lost operations reported
//
// The fault flags attach the fault-injection plane — torn lines,
// transient NVM faults with retry/backoff, persist-engine stalls — so the
// same sweep checks the claims against an adversarial NVM. Injection is
// deterministic given the seeds: re-running a failing configuration
// replays it cycle-for-cycle.
//
//	lrpcheck -mechanism LRP -faults        # everything on, must be clean
//	lrpcheck -mechanism ARP -faults        # the gap, as quarantined nodes
//	lrpcheck -mechanism LRP -tear-prob 1   # only tearing
//
// An RP-enforcing mechanism whose sweep is not consistent (an RP
// violation, a dirty recovery walk or a durable-linearizability
// violation at any boundary) exits 1. -json replaces the narration with a
// machine-readable lrpsweep/v1 export of the sweep report on stdout (the
// first RP-violating boundary rides along as a nested lrpcrash/v1
// document).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lrp"
)

func main() {
	var (
		mechName  = flag.String("mechanism", "LRP", "mechanism: "+strings.Join(lrp.MechanismNames(), "|"))
		structure = flag.String("structure", "linkedlist", "workload structure: "+strings.Join(lrp.WorkloadNames(), "|"))
		threads   = flag.Int("threads", 4, "worker threads")
		size      = flag.Int("size", 256, "initial structure size")
		ops       = flag.Int("ops", 200, "operations per thread")
		seed      = flag.Uint64("seed", 7, "deterministic workload seed")
		dlin      = flag.Bool("dlin", false, "record the abstract operation history and check durable linearizability at every boundary")
		jsonOut   = flag.Bool("json", false, "machine-readable lrpsweep/v1 sweep export on stdout instead of the narration")
		parallel  = flag.Int("parallel", 0, "worker goroutines for the boundary sweep (0: one per CPU, 1: serial; the report is identical at any count)")

		faults    = flag.Bool("faults", false, "enable every fault injector at default rates")
		faultSeed = flag.Uint64("fault-seed", 1, "deterministic fault-injection seed")
		tearProb  = flag.Float64("tear-prob", 0, "probability an in-flight line is torn at a crash")
		writeProb = flag.Float64("write-fault-prob", 0, "per-attempt NVM write rejection probability")
		readProb  = flag.Float64("read-fault-prob", 0, "per-attempt NVM media read error probability")
		stallProb = flag.Float64("stall-prob", 0, "per-run persist-engine stall probability")
		stallMax  = flag.Int64("stall-max", 0, "max injected stall in cycles (0: default)")
	)
	flag.Parse()

	k, err := lrp.ParseMechanism(*mechName)
	if err != nil {
		fail(err)
	}
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = *threads
	if cfg.Cores < 4 {
		cfg.Cores = 4
	}
	cfg.TrackHB = true
	if *faults {
		cfg.Faults = lrp.EnableAllFaults(*faultSeed)
	} else {
		cfg.Faults = lrp.FaultConfig{
			Seed:           *faultSeed,
			TearProb:       *tearProb,
			WriteFaultProb: *writeProb,
			ReadFaultProb:  *readProb,
			StallProb:      *stallProb,
			StallMax:       lrp.Time(*stallMax),
		}
	}
	spec := lrp.Spec{
		Structure:    *structure,
		Threads:      *threads,
		InitialSize:  *size,
		OpsPerThread: *ops,
		Seed:         *seed,
	}

	say := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}
	say("running %s under %s (%d threads, %d elements, %d ops/thread)...\n",
		*structure, k, *threads, *size, *ops)
	if cfg.Faults.Enabled() {
		say("faults: tear=%.2f write=%.2f read=%.2f stall=%.2f (seed %d)\n",
			cfg.Faults.TearProb, cfg.Faults.WriteFaultProb, cfg.Faults.ReadFaultProb,
			cfg.Faults.StallProb, cfg.Faults.Seed)
	}
	var (
		m    *lrp.Machine
		rec  lrp.Recoverable
		hist *lrp.OpHistory
	)
	if *dlin {
		_, m, rec, hist, err = lrp.RunRecoverableWorkloadHist(cfg, spec)
	} else {
		_, m, rec, err = lrp.RunRecoverableWorkload(cfg, spec)
	}
	if err != nil {
		fail(err)
	}
	sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{Rec: rec, Hist: hist, Workers: *parallel, Seed: *seed})
	if err != nil {
		fail(err)
	}
	msg, ok := verdict(k, sweep)
	if *jsonOut {
		if err := sweep.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	} else {
		narrate(m, sweep)
		fmt.Printf("\n%s\n", msg)
	}
	if !ok {
		os.Exit(1)
	}
}

// narrate prints the sweep's tallies, its first violations and, when the
// fault plane is attached, the fault machinery's counters.
func narrate(m *lrp.Machine, sweep *lrp.SweepReport) {
	fmt.Printf("swept %d crash boundaries over %v of execution\n", sweep.Boundaries, m.Time())
	fmt.Printf("  recovery walks: %d run, %d dirty (%d nodes quarantined)\n",
		sweep.WalksRun, sweep.DirtyWalks, sweep.Quarantined)
	if sweep.DLinChecked > 0 {
		fmt.Printf("  durable linearizability: %d/%d boundaries clean\n",
			sweep.DLinChecked-sweep.DLinBad, sweep.DLinChecked)
	}
	fmt.Printf("  RP  (consistent-cut) violations: %d\n", sweep.RPBad)
	fmt.Printf("  ARP (one-sided rule) violations: %d\n", sweep.ARPBad)

	if first := sweep.FirstRP; first != nil {
		fmt.Printf("\nfirst RP-violating crash: t=%v (%d/%d writes persisted)\n",
			first.At, first.PersistedWrites, first.TotalWrites)
		printFirst(first.RPViolations)
	}
	if sweep.FirstDirty != nil {
		fmt.Printf("\nfirst dirty recovery walk at t=%v:\n  %v\n", sweep.FirstDirtyAt, sweep.FirstDirty)
		printFirst(sweep.FirstDirty.Quarantined)
	}
	if len(sweep.DLinViolations) > 0 {
		fmt.Printf("\ndurable-linearizability violations (earliest %d of %d violating boundaries):\n",
			len(sweep.DLinViolations), sweep.DLinBad)
		printFirst(sweep.DLinViolations)
	}

	if m.Faults() == nil {
		return
	}
	nst, fst := m.NVM().Stats(), m.FaultStats()
	fmt.Printf("\nfault machinery counters:\n")
	fmt.Printf("  %-28s %d\n", "controller retries", nst.Retries)
	fmt.Printf("  %-28s %d\n", "backoff cycles", nst.BackoffCycles)
	fmt.Printf("  %-28s %d\n", "retry-budget giveups", nst.Giveups)
	fmt.Printf("  %-28s %d\n", "torn lines applied", nst.TornApplied)
	fmt.Printf("  %-28s %d\n", "injected write faults", fst.WriteFaults)
	fmt.Printf("  %-28s %d\n", "injected read faults", fst.ReadFaults)
	fmt.Printf("  %-28s %d (%d cycles)\n", "injected engine stalls", fst.Stalls, fst.StallCycles)
}

// printFirst prints the first three items of a finding list, one a line.
func printFirst[T any](items []T) {
	for i, it := range items {
		if i == 3 {
			fmt.Printf("  ... and %d more\n", len(items)-3)
			return
		}
		fmt.Printf("  %v\n", it)
	}
}

// verdict judges a sweep against the mechanism's claim. ok is false only
// when an RP-enforcing mechanism's sweep is not Consistent: an RP
// violation, a dirty recovery walk or a durable-linearizability violation
// at any boundary. The known gaps of NOP and ARP are reported, not failed.
func verdict(k lrp.Mechanism, sweep *lrp.SweepReport) (msg string, ok bool) {
	switch {
	case k.EnforcesRP() && sweep.Consistent():
		return fmt.Sprintf("%s upholds Release Persistency: every persist boundary leaves a consistent cut that recovers cleanly.", k), true
	case k.EnforcesRP():
		return fmt.Sprintf("BUG: %s claims RP but the sweep found %d RP-violating boundaries, %d dirty walks and %d durably non-linearizable boundaries.",
			k, sweep.RPBad, sweep.DirtyWalks, sweep.DLinBad), false
	case !sweep.Consistent():
		return fmt.Sprintf("%s does not uphold Release Persistency: null recovery is unsafe (the paper's §3 argument).", k), true
	default:
		return "no violations at any boundary — try a larger run.", true
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lrpcheck:", err)
	os.Exit(1)
}
