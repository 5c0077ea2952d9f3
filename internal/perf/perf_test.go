package perf

import (
	"strings"
	"testing"

	"lrp/internal/obs"
)

// fakeClock replaces the profiler's clock with a manually advanced one.
func fakeClock(p *Profiler) *int64 {
	var now int64
	p.clock = func() int64 { return now }
	return &now
}

func TestExclusiveAttribution(t *testing.T) {
	p := New(Options{})
	now := fakeClock(p)

	p.Start(PhaseProtocol) // t=0
	*now = 10
	p.Start(PhaseNVM) // protocol gets 10
	*now = 25
	p.End() // nvm gets 15
	*now = 30
	p.End() // protocol gets 5 more

	if got := p.ns[PhaseProtocol].Load(); got != 15 {
		t.Errorf("protocol self time = %d, want 15", got)
	}
	if got := p.ns[PhaseNVM].Load(); got != 15 {
		t.Errorf("nvm self time = %d, want 15", got)
	}
	if got := p.TotalNs(); got != 30 {
		t.Errorf("total = %d, want 30", got)
	}
}

func TestNestedSamePhase(t *testing.T) {
	p := New(Options{})
	now := fakeClock(p)
	p.Start(PhaseCrash)
	*now = 5
	p.Start(PhaseCrash)
	*now = 12
	p.End()
	*now = 20
	p.End()
	if got := p.ns[PhaseCrash].Load(); got != 20 {
		t.Errorf("crash self time = %d, want 20", got)
	}
	snap := p.Snapshot()
	if snap[PhaseCrash].Count != 2 {
		t.Errorf("crash regions = %d, want 2", snap[PhaseCrash].Count)
	}
}

func TestGapsUnattributed(t *testing.T) {
	p := New(Options{})
	now := fakeClock(p)
	p.Start(PhaseScheduler)
	*now = 3
	p.End()
	*now = 100 // gap: no region open
	p.Start(PhaseProtocol)
	*now = 104
	p.End()
	if got := p.TotalNs(); got != 7 {
		t.Errorf("total = %d, want 7 (gap must not be attributed)", got)
	}
}

func TestNilSafety(t *testing.T) {
	var p *Profiler
	p.Start(PhaseNVM)
	p.End()
	p.PublishGauges(nil)
	if p.Snapshot() != nil || p.TotalNs() != 0 || p.Report() != "" {
		t.Error("nil profiler must report nothing")
	}
}

func TestEndWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("End without Start must panic")
		}
	}()
	New(Options{}).End()
}

func TestSnapshotDeterministicShape(t *testing.T) {
	p := New(Options{})
	snap := p.Snapshot()
	if len(snap) != int(numPhases) {
		t.Fatalf("snapshot has %d phases, want %d", len(snap), numPhases)
	}
	for i, st := range snap {
		if st.Phase != Phase(i) || st.Name != Phase(i).String() {
			t.Errorf("snapshot[%d] = %v, want phase %v", i, st, Phase(i))
		}
	}
}

func TestPublishGauges(t *testing.T) {
	p := New(Options{})
	now := fakeClock(p)
	p.Start(PhaseEngineScan)
	*now = 42
	p.End()
	reg := obs.NewRegistry()
	p.PublishGauges(reg)
	if got := reg.Gauge("host/engine_scan_ns").Value(); got != 42 {
		t.Errorf("host/engine_scan_ns = %d, want 42", got)
	}
	if got := reg.Gauge("host/engine_scan_regions").Value(); got != 1 {
		t.Errorf("host/engine_scan_regions = %d, want 1", got)
	}
	// Phases never entered are not exported.
	for _, mv := range reg.Snapshot() {
		if strings.Contains(mv.Name, "protocol") {
			t.Errorf("unexpected gauge %q for an unentered phase", mv.Name)
		}
	}
}

func TestLabelsSmoke(t *testing.T) {
	// Labels exercise runtime/pprof.SetGoroutineLabels; just prove the
	// region machinery works with them enabled.
	p := New(Options{Labels: true, Mech: "LRP"})
	p.Start(PhaseProtocol)
	p.Start(PhaseMechanism)
	p.End()
	p.End()
	if p.Snapshot()[PhaseMechanism].Count != 1 {
		t.Error("labeled region not counted")
	}
}

func TestConcurrentSnapshot(t *testing.T) {
	// One goroutine owns the regions; another snapshots concurrently.
	// Run under -race to prove the accumulators are safely published.
	p := New(Options{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			p.Start(PhaseProtocol)
			p.Start(PhaseNVM)
			p.End()
			p.End()
		}
		close(done)
	}()
	for {
		select {
		case <-done:
			if p.Snapshot()[PhaseProtocol].Count != 1000 {
				t.Error("lost region counts")
			}
			return
		default:
			_ = p.Snapshot()
			_ = p.TotalNs()
		}
	}
}

func TestReportFormat(t *testing.T) {
	p := New(Options{})
	now := fakeClock(p)
	p.Start(PhaseProtocol)
	*now = 1000
	p.End()
	rep := p.Report()
	if !strings.Contains(rep, "protocol") || !strings.Contains(rep, "100.0%") {
		t.Errorf("report missing expected content:\n%s", rep)
	}
	if strings.Contains(rep, "recovery") {
		t.Errorf("report must omit phases never entered:\n%s", rep)
	}
}
