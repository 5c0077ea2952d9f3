package lrp

import (
	"fmt"
	"slices"

	"lrp/internal/dlin"
	"lrp/internal/exp"
	"lrp/internal/fault"
	"lrp/internal/model"
	"lrp/internal/perf"
	"lrp/internal/recovery"
	"lrp/internal/workload"
)

// Fault-injection and recovery types, re-exported for external use.
type (
	// FaultConfig tunes the deterministic fault-injection plane (torn
	// lines, transient NVM faults, persist-engine stalls); set it as
	// Config.Faults. The zero value injects nothing.
	FaultConfig = fault.Config
	// RecoveryReport is the outcome of a hardened recovery walk: what
	// was recovered, what was quarantined, what was lost.
	RecoveryReport = recovery.Report
	// Recoverable is a workload run's structure, bound to its anchors,
	// that walks a crash image itself (returned by RunRecoverableWorkload).
	Recoverable = workload.Recoverable
)

// EnableAllFaults returns a FaultConfig with every injector active at
// rates that exercise all the fault machinery in a short run.
func EnableAllFaults(seed uint64) FaultConfig { return fault.EnableAll(seed) }

// RunRecoverableWorkload is RunWorkload plus a Recoverable handle bound
// to the run's structure, for recovery walks over crash images.
func RunRecoverableWorkload(cfg Config, spec Spec) (*Result, *Machine, Recoverable, error) {
	return workload.RunRecoverable(cfg, spec)
}

// CrashReport describes the durable state a crash at a given instant
// would leave, and whether it satisfies the paper's recovery criterion.
type CrashReport struct {
	// At is the crash instant.
	At Time
	// PersistedWrites and TotalWrites count the execution's writes that
	// had (respectively, had not yet) reached NVM.
	PersistedWrites uint64
	TotalWrites     uint64
	// RPViolations are consistent-cut violations under Release
	// Persistency: nonempty means null recovery is not guaranteed.
	RPViolations []Violation
	// ARPViolations are violations of the weaker ARP-rule.
	ARPViolations []Violation
	// Image is the reconstructed NVM image at the crash instant. With a
	// fault plane attached it reflects word-granularity atomicity: lines
	// mid-persist may be torn.
	Image *Image
	// Recovery is the hardened recovery walk over Image; nil unless the
	// crash was taken through CrashRecover.
	Recovery *RecoveryReport
}

// ConsistentCut reports whether the crash state satisfies RP.
func (r *CrashReport) ConsistentCut() bool { return len(r.RPViolations) == 0 }

// Crash reconstructs the durable state of machine m at instant at. The
// machine must have been built with cfg.TrackHB = true.
func Crash(m *Machine, at Time) (*CrashReport, error) {
	tr := m.Tracker()
	if tr == nil {
		return nil, fmt.Errorf("lrp: crash analysis requires Config.TrackHB")
	}
	if p := m.Perf(); p != nil {
		p.Start(perf.PhaseCrash)
		defer p.End()
	}
	persisted, total := tr.PersistedCount(at)
	m.Observer().CrashSnapshot(at, persisted, total)
	return &CrashReport{
		At:              at,
		PersistedWrites: persisted,
		TotalWrites:     total,
		RPViolations:    tr.CheckCut(at, model.RP),
		ARPViolations:   tr.CheckCut(at, model.ARP),
		Image:           m.CrashImageAt(at),
	}, nil
}

// CrashRecover is Crash plus the hardened recovery walk over the crash
// image, reported in CrashReport.Recovery and the obs registry.
func CrashRecover(m *Machine, rec Recoverable, at Time) (*CrashReport, error) {
	rep, err := Crash(m, at)
	if err != nil {
		return nil, err
	}
	if p := m.Perf(); p != nil {
		p.Start(perf.PhaseRecovery)
		defer p.End()
	}
	rep.Recovery = rec.Recover(rep.Image)
	m.Observer().RecoveryQuarantine(len(rep.Recovery.Quarantined))
	return rep, nil
}

// crashHorizon is the last instant worth crashing at: the end of core
// execution or the last persist ack, whichever is later. Persist acks can
// outlive m.Time() (a drain issues its final persists and the cores
// retire while the NVM controllers are still writing), and those trailing
// instants are exactly where an unordered last write shows up.
func crashHorizon(m *Machine) Time {
	end := m.Time()
	for _, e := range m.NVM().Events() {
		if e.Done > end {
			end = e.Done
		}
	}
	return end
}

// CrashBoundaries enumerates every instant at which the durable state can
// change — each persist completion and each start of a torn persist, one
// cycle either side of it — plus the start and end of the execution,
// deduplicated and sorted. These are exactly the instants at which a
// write's durable instant (model.Tracker.DurableAt) can fall: an ack, or
// the start of a torn persist whose words the image cursor lays down
// from then on (the same fault.Plane.TornWords decision). A crash sweep
// over them provably covers every durable-state transition: between
// consecutive boundaries the crash image is constant, so any violation
// or recovery failure visible at some instant is visible at a boundary.
func CrashBoundaries(m *Machine) []Time {
	end := crashHorizon(m)
	var out []Time
	add := func(t Time) {
		if t >= 0 && t <= end {
			out = append(out, t)
		}
	}
	add(0)
	add(end)
	faults := m.Faults()
	for _, e := range m.NVM().Events() {
		add(e.Done - 1)
		add(e.Done)
		add(e.Done + 1)
		if _, torn := faults.TornWords(e.Line, e.Done); torn {
			add(e.Start - 1)
			add(e.Start)
			add(e.Start + 1)
		}
	}
	// Mechanism-held durability (eADR's release/drain completions) changes
	// the durable state without an NVM event; probe those instants too.
	for _, t := range m.MechCrashInstants() {
		add(t - 1)
		add(t)
		add(t + 1)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// MaxDLinFindings bounds the durable-linearizability findings a sweep
// report retains (the earliest, in boundary order); DLinBad still counts
// every violating boundary.
const MaxDLinFindings = 32

// DLinFinding is one durable-linearizability violation tied to its sweep
// coordinates: the boundary index and instant it was found at, plus the
// mechanism and seed of the swept run, so the finding alone is enough to
// reproduce it with one command.
type DLinFinding struct {
	// Boundary indexes CrashBoundaries; At is the crash instant.
	Boundary int
	At       Time
	// Mechanism and Seed identify the run.
	Mechanism string
	Seed      uint64
	// V is the violation itself.
	V DLinViolation
}

func (f DLinFinding) String() string {
	return fmt.Sprintf("dlin[mech=%s seed=%d boundary=%d t=%d]: %v",
		f.Mechanism, f.Seed, f.Boundary, f.At, f.V)
}

// SweepReport aggregates an exhaustive crash-boundary sweep.
type SweepReport struct {
	// Mechanism and Seed identify the swept run (seed as passed through
	// SweepOpts).
	Mechanism string
	Seed      uint64
	// Boundaries is the number of crash instants examined.
	Boundaries int
	// RPBad and ARPBad count instants violating RP / the ARP-rule.
	RPBad, ARPBad int
	// FirstRP is the full report of the first RP-violating instant.
	FirstRP *CrashReport
	// WalksRun counts boundaries whose recovered state was checked (zero
	// without a Recoverable; a boundary where no line the previous walk
	// read has changed reuses that walk); DirtyWalks those whose
	// recovered state quarantined or lost nodes; Quarantined the total
	// nodes quarantined, summed over those boundaries.
	WalksRun, DirtyWalks, Quarantined int
	// FirstDirty is the first non-clean recovery report, at FirstDirtyAt.
	FirstDirty   *RecoveryReport
	FirstDirtyAt Time
	// DLinChecked counts boundaries checked for durable linearizability
	// (zero unless the sweep ran with an operation history); DLinBad
	// those with at least one violation.
	DLinChecked, DLinBad int
	// DLinViolations holds the earliest findings in boundary order,
	// capped at MaxDLinFindings. FirstDLin points at the first (nil when
	// none), which occurred at FirstDLinAt.
	DLinViolations []DLinFinding
	FirstDLin      *DLinFinding
	FirstDLinAt    Time
}

// Consistent reports the paper's claim for a correct mechanism: no RP
// violation, no recovery walk that lost a node, and no durable-
// linearizability violation, at any boundary.
func (r *SweepReport) Consistent() bool {
	return r.RPBad == 0 && r.DirtyWalks == 0 && r.DLinBad == 0
}

func (r *SweepReport) String() string {
	s := fmt.Sprintf("sweep[mech=%s seed=%d]: %d boundaries, %d RP / %d ARP-rule violations, %d/%d recovery walks dirty (%d nodes quarantined)",
		r.Mechanism, r.Seed, r.Boundaries, r.RPBad, r.ARPBad, r.DirtyWalks, r.WalksRun, r.Quarantined)
	if r.DLinChecked > 0 {
		s += fmt.Sprintf(", %d/%d boundaries durably linearizable", r.DLinChecked-r.DLinBad, r.DLinChecked)
	}
	return s
}

// SweepOpts configures a crash-boundary sweep.
type SweepOpts struct {
	// Rec enables a hardened recovery walk at every boundary.
	Rec Recoverable
	// Hist enables durable-linearizability checking (requires Rec): at
	// every boundary the recovered state read through Rec is verified to
	// be a happens-before-closed linearization prefix of the recorded
	// operation history. Record one with RunRecoverableWorkloadHist, or
	// reconstruct one from a trace (trace.Replayed.History).
	Hist *OpHistory
	// Workers shards the sorted boundary list into contiguous ranges
	// across OS goroutines (0: one per CPU). The merged report is
	// identical at any worker count.
	Workers int
	// Seed tags the report and every finding with the workload seed for
	// one-command reproduction. Purely informational.
	Seed uint64
}

// SweepCrash crashes machine m at every durable-state boundary and
// checks each durable state: the consistent-cut criterion always, a
// hardened recovery walk when o.Rec is set, and durable linearizability
// when o.Hist is set too. The sorted boundary list is split into
// contiguous ranges; each worker owns a private image cursor it advances
// from its range's start, so the incremental-image optimization survives
// the split. The merged report is identical to the serial sweep's at any
// worker count: counts are sums over disjoint ranges, and every
// first-hit (FirstRP, FirstDirty, FirstDLin) comes from the globally
// first boundary — the lowest index across chunks — not from whichever
// worker finished first. The machine is shared read-only (the HB
// tracker, persist log and fault plane are immutable once the run ends;
// observer counters are atomic). The machine must have been built with
// Config.TrackHB.
func SweepCrash(m *Machine, o SweepOpts) (*SweepReport, error) {
	mech := m.Config().Mechanism.String()
	tr := m.Tracker()
	if tr == nil {
		return nil, fmt.Errorf("lrp: crash analysis requires Config.TrackHB (mech=%s seed=%d)", mech, o.Seed)
	}
	rec := o.Rec
	var ck *dlin.Checker
	if o.Hist != nil {
		if rec == nil {
			return nil, fmt.Errorf("lrp: durable-linearizability checking requires a Recoverable (mech=%s seed=%d)", mech, o.Seed)
		}
		var err error
		if ck, err = dlin.NewChecker(o.Hist, tr); err != nil {
			return nil, fmt.Errorf("lrp: mech=%s seed=%d: %w", mech, o.Seed, err)
		}
	}
	// Both cut schedules are built once and shared read-only by every
	// worker: each boundary's consistency verdict is then a lookup.
	rp, arp := tr.CutSchedule(model.RP), tr.CutSchedule(model.ARP)
	workers := o.Workers
	// The sweep's host time is attributed from the caller's goroutine as
	// one crash-phase region (worker goroutines never touch the
	// profiler's region stack; what they add is wall-clock overlap).
	if p := m.Perf(); p != nil {
		p.Start(perf.PhaseCrash)
		defer p.End()
	}
	bounds := CrashBoundaries(m)
	rep := &SweepReport{Mechanism: mech, Seed: o.Seed, Boundaries: len(bounds)}
	if len(bounds) == 0 {
		return rep, nil
	}
	workers = exp.Workers(workers)
	if workers > len(bounds) {
		workers = len(bounds)
	}
	var ranges [][2]int
	for i := 0; i < workers; i++ {
		lo, hi := i*len(bounds)/workers, (i+1)*len(bounds)/workers
		if lo < hi {
			ranges = append(ranges, [2]int{lo, hi})
		}
	}
	chunks, _ := exp.Map(workers, len(ranges), func(i int) (sweepChunk, error) {
		return sweepRange(m, rec, ck, rp, arp, bounds, ranges[i][0], ranges[i][1]), nil
	})

	firstRP, firstDirty := -1, -1
	for _, c := range chunks {
		rep.RPBad += c.rpBad
		rep.ARPBad += c.arpBad
		rep.WalksRun += c.walksRun
		rep.DirtyWalks += c.dirtyWalks
		rep.Quarantined += c.quarantined
		rep.DLinChecked += c.dlinChecked
		rep.DLinBad += c.dlinBad
		// Chunks are merged in range order, so the first hit wins the
		// global minimum.
		if firstRP < 0 && c.firstRP >= 0 {
			firstRP = c.firstRP
		}
		if firstDirty < 0 && c.firstDirty >= 0 {
			firstDirty = c.firstDirty
			rep.FirstDirty, rep.FirstDirtyAt = c.firstDirtyRep, bounds[c.firstDirty]
		}
		// Each chunk kept its earliest findings, so taking them in range
		// order up to the cap reproduces the serial sweep's list exactly.
		for _, f := range c.dlinViol {
			if len(rep.DLinViolations) >= MaxDLinFindings {
				break
			}
			f.Mechanism, f.Seed = rep.Mechanism, rep.Seed
			rep.DLinViolations = append(rep.DLinViolations, f)
		}
	}
	if len(rep.DLinViolations) > 0 {
		rep.FirstDLin = &rep.DLinViolations[0]
		rep.FirstDLinAt = rep.DLinViolations[0].At
	}
	if firstRP >= 0 {
		// Built once, after the merge, so the sweep performs exactly one
		// image reconstruction for the report regardless of how many
		// chunks saw violations (and its observer/fault accounting matches
		// the serial sweep's).
		rep.FirstRP, _ = Crash(m, bounds[firstRP])
	}
	return rep, nil
}

// sweepChunk is one worker's tallies over a contiguous boundary range.
// First-hit positions are boundary indexes (-1: none) so the merge can
// pick the global minimum without comparing times across chunks.
type sweepChunk struct {
	rpBad, arpBad                     int
	walksRun, dirtyWalks, quarantined int
	firstRP, firstDirty               int
	firstDirtyRep                     *RecoveryReport
	dlinChecked, dlinBad              int
	dlinViol                          []DLinFinding
}

func sweepRange(m *Machine, rec Recoverable, ck *dlin.Checker, rp, arp *model.CutSchedule, bounds []Time, lo, hi int) sweepChunk {
	c := sweepChunk{firstRP: -1, firstDirty: -1}
	// Each worker owns a private Pass over the shared checker: boundary
	// ranges are ascending and the reports come from one image, so the
	// Pass checks each boundary from what changed since the last one, as
	// in a serial sweep of the same range.
	var pass *dlin.Pass
	if ck != nil {
		pass = ck.NewPass()
	}
	// Each worker advances a private incremental image source over its
	// range (boundaries ascend); the source returns its one working
	// image every time. The image watches the lines the walks read, and
	// the report is reused until a write hits one of them: the walk reads
	// nothing but the image, so over unchanged lines it would read the
	// same values in the same order and rebuild the same report. Once one
	// is hit, Recover re-walks only the walk units that read it
	// (recovery.Walk).
	var (
		images func(Time) *Image
		r      *RecoveryReport
	)
	if rec != nil {
		images = m.CrashImages()
	}
	for i := lo; i < hi; i++ {
		at := bounds[i]
		if rp.Bad(at) {
			c.rpBad++
			if c.firstRP < 0 {
				c.firstRP = i
			}
		}
		if arp.Bad(at) {
			c.arpBad++
		}
		if rec == nil {
			continue
		}
		if img := images(at); r == nil || img.Touched() {
			r = rec.Recover(img)
		}
		c.walksRun++
		if !r.Clean() {
			c.dirtyWalks++
			c.quarantined += len(r.Quarantined)
			if c.firstDirty < 0 {
				// A later walk over the image updates r in place.
				c.firstDirty, c.firstDirtyRep = i, r.Clone()
			}
		}
		m.Observer().RecoveryQuarantine(len(r.Quarantined))
		if pass != nil {
			c.dlinChecked++
			if vs := pass.Check(at, r); len(vs) > 0 {
				c.dlinBad++
				for _, v := range vs {
					if len(c.dlinViol) >= MaxDLinFindings {
						break
					}
					c.dlinViol = append(c.dlinViol, DLinFinding{Boundary: i, At: at, V: v})
				}
			}
		}
	}
	return c
}
