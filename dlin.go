package lrp

import (
	"fmt"

	"lrp/internal/dlin"
	"lrp/internal/workload"
)

// Durable-linearizability types, re-exported for external use.
type (
	// OpHistory is a recorded abstract operation history: every
	// data-structure call's semantics, invocation/response times, and
	// linearization stamp. Capture one live with
	// RunRecoverableWorkloadHist, or reconstruct one from a trace
	// (trace.Replayed.History).
	OpHistory = dlin.History
	// DLinOp is one operation in an OpHistory.
	DLinOp = dlin.Op
	// DLinViolation is one durable-linearizability violation: an
	// acked-but-lost, reordered, or phantom operation.
	DLinViolation = dlin.Violation
)

// Violation classes, re-exported from internal/dlin.
const (
	// DLinAckedLost marks an operation that was acknowledged and whose
	// linearization persisted, yet whose effect is missing from the
	// recovered state.
	DLinAckedLost = dlin.AckedLost
	// DLinReordered marks a durable operation whose happens-before
	// predecessors are not durable (the durable prefix is not closed).
	DLinReordered = dlin.Reordered
	// DLinPhantom marks recovered state that no durable prefix explains.
	DLinPhantom = dlin.Phantom
)

// RunRecoverableWorkloadHist is RunRecoverableWorkload plus operation-
// history capture: every data-structure call is recorded with its
// abstract semantics and linearization stamp, for durable-linearizability
// checking (SweepCrash with SweepOpts.Hist, or
// CheckDurableLinearizability). The instrumentation adds no simulated
// cycles: the run's timing, stats, and recorded op stream are identical
// to RunRecoverableWorkload's.
func RunRecoverableWorkloadHist(cfg Config, spec Spec) (*Result, *Machine, Recoverable, *OpHistory, error) {
	return workload.RunRecoverableHist(cfg, spec)
}

// RecoverableFor rebuilds a Recoverable handle for spec's structure on
// machine m without running a workload. Structure constructors allocate
// their anchors from static memory deterministically, so the handle binds
// to the same addresses the structure occupies on any machine that ran —
// or replayed — the same spec. This is how a trace replay (which drives
// raw memory ops, not data-structure code) gets a handle for recovery
// walks and durable-linearizability checks.
// api:keep — the only way to sweep a replayed machine (TRACES.md); TestTraceHistoryRoundTrip pins it.
func RecoverableFor(m *Machine, spec Spec) (Recoverable, error) {
	return workload.AnchorsFor(m, spec)
}

// CheckDurableLinearizability verifies one crash instant: the recovered
// state read through rec must be a happens-before-closed linearization
// prefix of h. It returns the violations found (empty: durably
// linearizable at this instant). For whole-execution checking use
// SweepCrash with SweepOpts.Hist, which amortizes the precomputation
// across all boundaries.
// api:keep — the one-instant dlin check beside CrashRecover; TestDLinSingleInstant holds it to the sweep.
func CheckDurableLinearizability(m *Machine, rec Recoverable, h *OpHistory, at Time) ([]DLinViolation, error) {
	mech := m.Config().Mechanism
	ck, err := dlin.NewChecker(h, m.Tracker())
	if err != nil {
		return nil, fmt.Errorf("lrp: mech=%s t=%d: %w", mech, at, err)
	}
	rep, err := CrashRecover(m, rec, at)
	if err != nil {
		return nil, fmt.Errorf("lrp: mech=%s t=%d: %w", mech, at, err)
	}
	return ck.NewPass().Check(at, rep.Recovery), nil
}
