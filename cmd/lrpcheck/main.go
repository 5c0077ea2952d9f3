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
// -faults sets every injector's rate, so it excludes -tear-prob,
// -write-fault-prob, -read-fault-prob, -stall-prob and -stall-max;
// -fault-seed needs an injector enabled, and -stall-max needs
// -stall-prob. A flag the sweep would not read is an error.
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
	"io"
	"strings"

	"lrp"
	"lrp/internal/cli"
)

func main() { cli.Main("lrpcheck", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lrpcheck", flag.ExitOnError)
	fs.SetOutput(stderr)
	var spec lrp.Spec
	var f lrp.FaultConfig
	mechName := fs.String("mechanism", "LRP", "mechanism: "+strings.Join(lrp.MechanismNames(), "|"))
	fs.StringVar(&spec.Structure, "structure", "linkedlist", "workload structure: "+strings.Join(lrp.WorkloadNames(), "|"))
	fs.IntVar(&spec.Threads, "threads", 4, "worker threads")
	fs.IntVar(&spec.InitialSize, "size", 256, "initial structure size")
	fs.IntVar(&spec.OpsPerThread, "ops", 200, "operations per thread")
	fs.Uint64Var(&spec.Seed, "seed", 7, "deterministic workload seed")
	dlin := fs.Bool("dlin", false, "record the abstract operation history and check durable linearizability at every boundary")
	jsonOut := fs.Bool("json", false, "machine-readable lrpsweep/v1 sweep export on stdout instead of the narration")
	parallel := fs.Int("parallel", 0, "worker goroutines for the boundary sweep (0: one per CPU, 1: serial; the report is identical at any count)")

	faults := fs.Bool("faults", false, "enable every fault injector at default rates (excludes the single-injector flags)")
	fs.Uint64Var(&f.Seed, "fault-seed", 1, "with an injector enabled: deterministic fault-injection seed")
	fs.Float64Var(&f.TearProb, "tear-prob", 0, "probability an in-flight line is torn at a crash")
	fs.Float64Var(&f.WriteFaultProb, "write-fault-prob", 0, "per-attempt NVM write rejection probability")
	fs.Float64Var(&f.ReadFaultProb, "read-fault-prob", 0, "per-attempt NVM media read error probability")
	fs.Float64Var(&f.StallProb, "stall-prob", 0, "per-run persist-engine stall probability")
	fs.Int64Var((*int64)(&f.StallMax), "stall-max", 0, "with -stall-prob: max injected stall in cycles (0: default)")
	fs.Parse(args)

	cfg, err := cli.Config(*mechName, spec.Threads, 0, 4, false)
	if err != nil {
		return err
	}
	cfg.TrackHB = true
	cfg.Faults = f
	reads := []string{"mechanism", "structure", "threads", "size", "ops", "seed", "dlin", "json", "parallel", "faults"}
	mode := "-faults"
	if *faults {
		cfg.Faults = lrp.EnableAllFaults(f.Seed)
		reads = append(reads, "fault-seed")
	} else {
		reads = append(reads, "tear-prob", "write-fault-prob", "read-fault-prob", "stall-prob")
		mode = "a sweep with no fault injector"
		if f.Enabled() {
			reads = append(reads, "fault-seed")
			mode = "a sweep with no stall injector"
		}
		if f.StallProb > 0 {
			reads = append(reads, "stall-max")
		}
	}
	if err := cli.Reads(fs, mode, reads...); err != nil {
		return err
	}

	say := stdout // -json replaces the narration
	if *jsonOut {
		say = io.Discard
	}
	fmt.Fprintf(say, "running %s under %s (%d threads, %d elements, %d ops/thread)...\n",
		spec.Structure, cfg.Mechanism, spec.Threads, spec.InitialSize, spec.OpsPerThread)
	if cfg.Faults.Enabled() {
		fmt.Fprintf(say, "faults: tear=%.2f write=%.2f read=%.2f stall=%.2f (seed %d)\n",
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
		return err
	}
	sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{Rec: rec, Hist: hist, Workers: *parallel, Seed: spec.Seed})
	if err != nil {
		return err
	}
	msg, ok := verdict(cfg.Mechanism, sweep)
	if *jsonOut {
		if err := sweep.WriteJSON(stdout); err != nil {
			return err
		}
	} else {
		narrate(stdout, m, sweep)
		fmt.Fprintf(stdout, "\n%s\n", msg)
	}
	if !ok {
		return cli.ErrFailed
	}
	return nil
}

// narrate prints the sweep's tallies, its first violations and, when the
// fault plane is attached, the fault machinery's counters.
func narrate(w io.Writer, m *lrp.Machine, sweep *lrp.SweepReport) {
	fmt.Fprintf(w, "swept %d crash boundaries over %v of execution\n", sweep.Boundaries, m.Time())
	fmt.Fprintf(w, "  recovery walks: %d run, %d dirty (%d nodes quarantined)\n",
		sweep.WalksRun, sweep.DirtyWalks, sweep.Quarantined)
	if sweep.DLinChecked > 0 {
		fmt.Fprintf(w, "  durable linearizability: %d/%d boundaries clean\n",
			sweep.DLinChecked-sweep.DLinBad, sweep.DLinChecked)
	}
	fmt.Fprintf(w, "  RP  (consistent-cut) violations: %d\n", sweep.RPBad)
	fmt.Fprintf(w, "  ARP (one-sided rule) violations: %d\n", sweep.ARPBad)

	if first := sweep.FirstRP; first != nil {
		fmt.Fprintf(w, "\nfirst RP-violating crash: t=%v (%d/%d writes persisted)\n",
			first.At, first.PersistedWrites, first.TotalWrites)
		printFirst(w, first.RPViolations)
	}
	if sweep.FirstDirty != nil {
		fmt.Fprintf(w, "\nfirst dirty recovery walk at t=%v:\n  %v\n", sweep.FirstDirtyAt, sweep.FirstDirty)
		printFirst(w, sweep.FirstDirty.Quarantined)
	}
	if len(sweep.DLinViolations) > 0 {
		fmt.Fprintf(w, "\ndurable-linearizability violations (earliest %d of %d violating boundaries):\n",
			len(sweep.DLinViolations), sweep.DLinBad)
		printFirst(w, sweep.DLinViolations)
	}

	if m.Faults() == nil {
		return
	}
	nst, fst := m.NVM().Stats(), m.FaultStats()
	fmt.Fprintf(w, "\nfault machinery counters:\n")
	fmt.Fprintf(w, "  %-28s %d\n", "controller retries", nst.Retries)
	fmt.Fprintf(w, "  %-28s %d\n", "backoff cycles", nst.BackoffCycles)
	fmt.Fprintf(w, "  %-28s %d\n", "retry-budget giveups", nst.Giveups)
	fmt.Fprintf(w, "  %-28s %d\n", "torn lines applied", nst.TornApplied)
	fmt.Fprintf(w, "  %-28s %d\n", "injected write faults", fst.WriteFaults)
	fmt.Fprintf(w, "  %-28s %d\n", "injected read faults", fst.ReadFaults)
	fmt.Fprintf(w, "  %-28s %d (%d cycles)\n", "injected engine stalls", fst.Stalls, fst.StallCycles)
}

// printFirst prints the first three items of a finding list, one a line.
func printFirst[T any](w io.Writer, items []T) {
	for i, it := range items {
		if i == 3 {
			fmt.Fprintf(w, "  ... and %d more\n", len(items)-3)
			return
		}
		fmt.Fprintf(w, "  %v\n", it)
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
