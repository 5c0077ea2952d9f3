// Package perf is the host-side twin of package obs: where obs observes
// the *simulated* machine (virtual time, machine counters), perf observes
// the *simulator* — which host wall-time and allocations each phase of
// the simulation costs. It is the instrument behind cmd/lrpbench and the
// BENCH_*.json trajectory: every performance PR proves its win against
// numbers this package produced.
//
// The core abstraction is the scoped region: the machine layers bracket
// their hot paths with Profiler.Start(phase)/Profiler.End(). Regions
// nest; elapsed host time is attributed exclusively to the innermost open
// region, so the per-phase totals are self times that sum to the total
// instrumented wall time (the remaining gap — workload Go code between
// memory operations — is unattributed by design). Scheduler handoffs are
// NOT a gap: the kernel opens the scheduler region when a thread parks
// and the next granted thread closes it when it resumes, so the
// park/resume coroutine switches land in the scheduler phase (pinned by
// TestSchedulerPhaseAttribution in package memsys).
// Regions read host clocks only, never virtual time, so a machine with a
// Profiler attached is cycle-for-cycle identical to one without
// (asserted by TestObserverTimingNeutral in the root package).
//
// When Options.Labels is set, each region also tags its goroutine with a
// runtime/pprof label ("lrp_phase", plus "lrp_mech" when given), so a
// -pprof CPU profile renders phase- and mechanism-tagged flamegraphs.
//
// Ownership: a Profiler may be attached to at most one executing machine.
// The machine serializes execution through its scheduler handoffs, so the
// region bookkeeping needs no locks; the per-phase accumulators are
// written atomically, so concurrent tooling (a pprof scrape, a progress
// printer) may call Snapshot while the simulation runs.
package perf

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"lrp/internal/obs"
	"lrp/internal/stats"
)

// Phase names one attributable component of simulator host time.
type Phase uint8

const (
	// PhaseScheduler is the virtual-time scheduling kernel's cost: the
	// park/resume coroutine switches of each handoff. The tournament
	// replay that decides whether to park runs before the region opens,
	// so operations admitted on the kernel's run-ahead fast path never
	// enter the phase, and its region count is the number of handoffs,
	// not the number of operations.
	PhaseScheduler Phase = iota
	// PhaseProtocol is the coherence-protocol work of one memory
	// operation (perform and everything under it not claimed by an
	// inner region).
	PhaseProtocol
	// PhaseMechanism is the persistency-mechanism hooks (OnWrite,
	// OnAcquire, …, Drain) of the active mechanism.
	PhaseMechanism
	// PhaseEngineScan is the persist engine's dirty-line scan and
	// epoch-ordered flush machinery.
	PhaseEngineScan
	// PhaseNVM is the NVM controller model: persist and line-read
	// service-time computation, event logging, fault retries.
	PhaseNVM
	// PhaseTraceIO is trace capture/replay I/O: encoding and writing op
	// records from the recorder hooks.
	PhaseTraceIO
	// PhaseCrash is crash analysis: consistent-cut checks, crash-image
	// reconstruction, boundary sweeps.
	PhaseCrash
	// PhaseRecovery is the hardened recovery walks over crash images.
	PhaseRecovery

	numPhases

	// phaseNone marks "no region open" on the region stack.
	phaseNone Phase = numPhases
)

var phaseNames = [numPhases]string{
	PhaseScheduler:  "scheduler",
	PhaseProtocol:   "protocol",
	PhaseMechanism:  "mechanism",
	PhaseEngineScan: "engine_scan",
	PhaseNVM:        "nvm",
	PhaseTraceIO:    "trace_io",
	PhaseCrash:      "crash",
	PhaseRecovery:   "recovery",
}

func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Options configures a Profiler.
type Options struct {
	// Labels tags the running goroutine with runtime/pprof labels per
	// region ("lrp_phase"), so CPU profiles are phase-tagged. Off by
	// default: SetGoroutineLabels costs more than the counter updates.
	Labels bool
	// Mech, when non-empty, adds an "lrp_mech" label to every region
	// (only meaningful with Labels).
	Mech string
}

// Profiler accumulates per-phase host wall time and region counts.
// The zero value is not usable; build one with New. All methods are
// nil-safe, so call sites may hold a nil *Profiler when disabled.
type Profiler struct {
	// clock returns monotonic nanoseconds since the profiler's epoch.
	// Replaceable by tests.
	clock func() int64

	labels   bool
	baseCtx  context.Context
	phaseCtx [numPhases]context.Context

	// Region state: single-owner (see the package comment). cur is the
	// innermost open region (phaseNone outside any region); mark is the
	// clock at the last attribution point.
	cur   Phase
	mark  int64
	stack []Phase

	ns    [numPhases]atomic.Int64
	count [numPhases]atomic.Int64
}

// New builds a Profiler.
func New(opt Options) *Profiler {
	epoch := time.Now()
	p := &Profiler{
		clock:  func() int64 { return int64(time.Since(epoch)) },
		labels: opt.Labels,
		cur:    phaseNone,
		stack:  make([]Phase, 0, 8),
	}
	if opt.Labels {
		base := context.Background()
		if opt.Mech != "" {
			base = pprof.WithLabels(base, pprof.Labels("lrp_mech", opt.Mech))
		}
		p.baseCtx = base
		for ph := Phase(0); ph < numPhases; ph++ {
			p.phaseCtx[ph] = pprof.WithLabels(base, pprof.Labels("lrp_phase", ph.String()))
		}
	}
	return p
}

// Start opens a region of phase ph, attributing the time since the last
// attribution point to the enclosing region (if any). Every Start must
// be paired with an End before the machine's next attribution point; the
// pair may straddle a scheduler handoff (the parking thread Starts, the
// resumed one Ends) because the machine serializes execution, which is
// exactly how handoff cost itself is attributed to PhaseScheduler.
func (p *Profiler) Start(ph Phase) {
	if p == nil {
		return
	}
	now := p.clock()
	if p.cur != phaseNone {
		p.ns[p.cur].Add(now - p.mark)
	}
	p.stack = append(p.stack, p.cur)
	p.cur = ph
	p.mark = now
	p.count[ph].Add(1)
	if p.labels {
		pprof.SetGoroutineLabels(p.phaseCtx[ph])
	}
}

// End closes the innermost open region, attributing its remaining time
// and restoring the enclosing region (and its pprof labels).
func (p *Profiler) End() {
	if p == nil {
		return
	}
	if p.cur == phaseNone {
		panic("perf: End without a matching Start")
	}
	now := p.clock()
	p.ns[p.cur].Add(now - p.mark)
	p.cur = p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.mark = now
	if p.labels {
		if p.cur == phaseNone {
			pprof.SetGoroutineLabels(p.baseCtx)
		} else {
			pprof.SetGoroutineLabels(p.phaseCtx[p.cur])
		}
	}
}

// PhaseStat is one phase's accumulated totals.
type PhaseStat struct {
	Phase Phase
	Name  string
	// Ns is the exclusive (self) host wall time spent in the phase.
	Ns int64
	// Count is the number of regions entered.
	Count int64
}

// Snapshot returns every phase's totals in phase order (zero phases
// included, so the shape is deterministic). Safe to call concurrently
// with an executing machine.
func (p *Profiler) Snapshot() []PhaseStat {
	if p == nil {
		return nil
	}
	out := make([]PhaseStat, numPhases)
	for ph := Phase(0); ph < numPhases; ph++ {
		out[ph] = PhaseStat{
			Phase: ph,
			Name:  ph.String(),
			Ns:    p.ns[ph].Load(),
			Count: p.count[ph].Load(),
		}
	}
	return out
}

// TotalNs returns the total instrumented host time across all phases.
func (p *Profiler) TotalNs() int64 {
	if p == nil {
		return 0
	}
	var sum int64
	for ph := Phase(0); ph < numPhases; ph++ {
		sum += p.ns[ph].Load()
	}
	return sum
}

// PublishGauges exports the phase totals into an obs metrics registry as
// host-time gauges ("host/<phase>_ns", "host/<phase>_regions"), keeping
// host-side and simulated-machine observability in one report. Phases
// never entered are skipped. Nil-safe on both sides.
func (p *Profiler) PublishGauges(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	for _, st := range p.Snapshot() {
		if st.Count == 0 {
			continue
		}
		reg.Gauge("host/" + st.Name + "_ns").Set(st.Ns)
		reg.Gauge("host/" + st.Name + "_regions").Set(st.Count)
	}
}

// Report renders the phase breakdown as a table: exclusive time, share
// of instrumented time, region count, and mean cost per region.
func (p *Profiler) Report() string {
	if p == nil {
		return ""
	}
	total := p.TotalNs()
	t := stats.NewTable("Host-time phase profile (exclusive wall time)",
		"phase", "self time", "share", "regions", "ns/region")
	for _, st := range p.Snapshot() {
		if st.Count == 0 {
			continue
		}
		var share, per float64
		if total > 0 {
			share = 100 * float64(st.Ns) / float64(total)
		}
		if st.Count > 0 {
			per = float64(st.Ns) / float64(st.Count)
		}
		t.AddRow(st.Name,
			time.Duration(st.Ns).String(),
			stats.Pct(share),
			stats.Count(uint64(st.Count)),
			fmt.Sprintf("%.0f", per))
	}
	t.AddNote("host clocks only; simulated timing is unaffected (see OBSERVABILITY.md)")
	t.AddNote("time outside any region (workload code between memory operations) is not attributed")
	return t.Format()
}
