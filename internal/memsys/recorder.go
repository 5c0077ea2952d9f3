package memsys

import (
	"fmt"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/perf"
)

// Recorder receives the machine's memory-operation stream at the points
// operations actually perform — i.e., in the scheduler's global
// virtual-time order, which is exactly the cross-core synchronization
// order a replay must honor. Attach one through Config.Rec.
//
// The callbacks are invoked from the simulated threads while the
// scheduler holds the machine single-threaded, so implementations need
// no locking but must not re-enter the machine.
type Recorder interface {
	// RecordOp is called after op performed on thread tid. work is the
	// explicit compute (Ctx.Work) the thread charged since its previous
	// record; val and ok are the op's results (loaded value for loads,
	// observed value and swap success for CAS).
	RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool)
	// RecordTick reports trailing compute that was not followed by an
	// operation before a global event (sync, drain, mark, end of run).
	RecordTick(tid int, work engine.Time)
	// RecordSync marks a SyncClocks call (all clocks jump to the max).
	RecordSync()
	// RecordDrain marks a Drain call (buffered persists flush).
	RecordDrain()
	// RecordMark marks a harness phase boundary (window start/end).
	RecordMark(id uint8)
}

// OpRecorder receives a run's abstract data-structure operations
// (invocation, linearization point, response with outcome) interleaved
// with the memory-op stream, while the run captures its history
// (System.CaptureHistory). dlin.Builder implements it to assemble the
// history; a Recorder that also implements it — the trace writer — gets
// the same events, so the trace carries the history too.
//
// The callbacks fire between memory operations while the scheduler holds
// the machine single-threaded, under the same rules as Recorder's.
type OpRecorder interface {
	// RecordOpBegin marks thread tid invoking an abstract operation
	// (kind/key/val are the dlin encoding; the machine does not
	// interpret them).
	RecordOpBegin(tid int, kind uint8, key, val uint64)
	// RecordOpLin marks the thread's most recent write — necessarily the
	// memory op recorded immediately before — as the operation's
	// linearization point: lin is its happens-before stamp (zero without
	// a tracker) and linSeq its global perform-order index.
	RecordOpLin(tid int, lin model.Stamp, linSeq uint64)
	// RecordOpEnd marks the operation's response with its outcome.
	RecordOpEnd(tid int, ok bool, ret uint64)
}

// CaptureHistory starts the run's history capture: from now on every
// OpBegin, Linearize and OpEnd goes to h, and to the attached recorder
// too when it implements OpRecorder (the trace writer's op-history
// channel).
func (s *System) CaptureHistory(h OpRecorder) {
	s.hist = []OpRecorder{h}
	if or, ok := s.rec.(OpRecorder); ok {
		s.hist = append(s.hist, or)
	}
}

// Phase-marker ids emitted by the workload harness. Replay uses them to
// reconstruct the measured window's counter deltas.
const (
	// MarkWindowStart is emitted after warm-up and clock sync, at the
	// instant the measured window's counters are snapshotted.
	MarkWindowStart uint8 = 1
	// MarkWindowEnd is emitted when the measured window completes.
	MarkWindowEnd uint8 = 2
)

// perform dispatches one memory operation on thread tid and reports it
// to the recorder. Every execution path — coroutine programs via Ctx and
// trace replay via Step — funnels through here, so a recorded stream is
// complete whatever frontend drove the machine.
func (s *System) perform(tid int, op isa.Op) (uint64, bool) {
	if s.perf != nil {
		s.perf.Start(perf.PhaseProtocol)
	}
	s.performSeq++
	var v uint64
	ok := true
	switch op.Kind {
	case isa.Load:
		v = s.read(tid, op.Addr, op.Order.IsAcquire())
	case isa.Store:
		s.write(tid, op.Addr, op.Value, op.Order.IsRelease())
	case isa.CAS:
		v, ok = s.rmw(tid, op.Addr, op.Expected, op.Value, op.Order)
	default:
		panic(fmt.Sprintf("memsys: bad op %v", op))
	}
	if s.rec != nil {
		if s.perf != nil {
			s.perf.Start(perf.PhaseTraceIO)
		}
		th := s.threads[tid]
		w := th.recWork
		th.recWork = 0
		s.rec.RecordOp(tid, w, op, v, ok)
		if s.perf != nil {
			s.perf.End()
		}
	}
	if s.perf != nil {
		s.perf.End()
	}
	return v, ok
}

// advance credits thread tid with n cycles of non-memory compute. It is
// the single place a thread clock moves outside perform: the coroutine
// frontend (Ctx.Work) and the trace-replay frontend (Step, AdvanceClock)
// all funnel through it, so the scheduler's tournament replays and the
// replay path share one notion of thread time — and the recorder's
// pending-work accounting cannot drift between them.
func (s *System) advance(tid int, n engine.Time) {
	if n < 0 {
		panic("memsys: negative work")
	}
	s.clocks[tid] += n
	if s.rec != nil {
		s.threads[tid].recWork += n
	}
}

// Step applies work cycles of compute and then executes op on thread
// tid, without the coroutine scheduler: the caller owns the
// interleaving, and operations execute in exactly the order Step is
// called. This is the trace-replay frontend — replaying a recorded
// stream reproduces the recorded synchronization order under any
// mechanism, while the clocks (and therefore all timing metrics) evolve
// under the mechanism being replayed.
func (s *System) Step(tid int, work engine.Time, op isa.Op) (uint64, bool) {
	if tid < 0 || tid >= len(s.threads) {
		panic(fmt.Sprintf("memsys: Step on thread %d of %d", tid, len(s.threads)))
	}
	s.advance(tid, work)
	return s.perform(tid, op)
}

// AdvanceClock adds n idle cycles to thread tid's clock: trailing
// compute that is not followed by an operation (trace Tick records).
func (s *System) AdvanceClock(tid int, n engine.Time) { s.advance(tid, n) }

// Mark emits a phase marker to the recorder (no-op when none attached).
// The workload harness calls it at the measured window's boundaries.
func (s *System) Mark(id uint8) {
	if s.rec == nil {
		return
	}
	s.flushRecWork()
	s.rec.RecordMark(id)
}

// FlushRecorder emits any buffered trailing compute to the recorder as
// Tick records. Recording frontends call it before closing the trace.
func (s *System) FlushRecorder() { s.flushRecWork() }

// flushRecWork drains every thread's accumulated explicit compute to
// the recorder, in thread-id order so the emission is deterministic.
func (s *System) flushRecWork() {
	if s.rec == nil {
		return
	}
	if s.perf != nil {
		s.perf.Start(perf.PhaseTraceIO)
		defer s.perf.End()
	}
	for _, th := range s.threads {
		if th.recWork > 0 {
			w := th.recWork
			th.recWork = 0
			s.rec.RecordTick(th.id, w)
		}
	}
}
