package trace

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"lrp/internal/dlin"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/nvm"
	"lrp/internal/obs"
	"lrp/internal/workload"
)

// ReplayOpts configures a replay.
type ReplayOpts struct {
	// Mechanism replays the trace under a different mechanism than it
	// was recorded with. Only consulted when MechanismSet is true (NOP
	// is a valid override, so the zero value cannot mean "unset").
	Mechanism    mech.Kind
	MechanismSet bool
	// TrackHB enables happens-before tracking on the replay machine
	// (crash analysis of a replayed execution).
	TrackHB bool
	// Obs attaches an observability layer to the replay machine and
	// receives the replay-throughput counters.
	Obs *obs.Observer
	// Rec re-records the replayed execution into a second trace. Since
	// the op stream is mechanism-independent, the re-recorded stream's
	// checksum must equal the source trace's — the cross-mechanism
	// invariance check CI enforces.
	Rec memsys.Recorder
}

// Replayed is the outcome of replaying one trace.
type Replayed struct {
	// Header is the source trace's header.
	Header Header
	// Mechanism is the mechanism the replay ran under.
	Mechanism mech.Kind
	// Result is the measured window rebuilt from the trace's markers
	// under the replayed mechanism (nil if the trace has no window).
	Result *workload.Result
	// Embedded is the recording run's live window from the trace
	// footer (nil if absent). When Mechanism equals the recorded one,
	// Result must reproduce it byte-for-byte.
	Embedded *EmbeddedResult
	// Ops and Time are the full replayed stream's op count and final
	// virtual time (the window plus warm-up).
	Ops  uint64
	Time engine.Time
	// Checksum is the verified op-stream checksum of the source trace.
	Checksum uint32
	// Sys is the replay machine, for post-mortem inspection (crash
	// analysis when TrackHB was set).
	Sys *memsys.System
	// History is the abstract operation history carried by the trace
	// (nil if it was recorded without history instrumentation), with
	// linearization stamps rebuilt to match Sys's tracker — see
	// Reader.History.
	History *dlin.History
}

// Replay drives a fresh machine directly from the trace in src: no
// workload goroutines, no data-structure logic — the recorded global
// operation order is the schedule. Loads and CAS outcomes are checked
// against the recorded values on every op, so a trace that no longer
// matches the machine model (or a corrupt one) fails loudly at the
// first divergent operation.
func Replay(src io.Reader, o ReplayOpts) (*Replayed, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	k := r.Header().Mechanism
	if o.MechanismSet {
		k = o.Mechanism
	}
	cfg := r.Header().MachineConfig(k)
	cfg.TrackHB = o.TrackHB
	cfg.Obs = o.Obs
	cfg.Rec = o.Rec
	sys, err := memsys.New(cfg)
	if err != nil {
		return nil, err
	}

	out := &Replayed{Header: r.Header(), Mechanism: k, Sys: sys}
	var (
		winStart  engine.Time
		sysBefore memsys.Stats
		nvmBefore nvm.Stats
		inWindow  bool
	)
	hostStart := time.Now()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch rec.Type {
		case RecOp:
			v, ok := sys.Step(rec.TID, rec.Work, rec.Op)
			switch rec.Op.Kind {
			case isa.Load:
				if v != rec.Val {
					return nil, fmt.Errorf("trace: replay diverged at op %d: %v read %d, trace recorded %d",
						r.Ops(), rec.Op, v, rec.Val)
				}
			case isa.CAS:
				if v != rec.Val || ok != rec.OK {
					return nil, fmt.Errorf("trace: replay diverged at op %d: %v observed (%d,%v), trace recorded (%d,%v)",
						r.Ops(), rec.Op, v, ok, rec.Val, rec.OK)
				}
			}
		case RecTick:
			sys.AdvanceClock(rec.TID, rec.Work)
		case RecSync:
			sys.SyncClocks()
		case RecDrain:
			sys.Drain()
		case RecMark:
			sys.Mark(rec.Mark)
			switch rec.Mark {
			case memsys.MarkWindowStart:
				winStart = sys.Time()
				sysBefore = sys.Stats()
				nvmBefore = sys.NVM().Stats()
				inWindow = true
			case memsys.MarkWindowEnd:
				if !inWindow {
					return nil, fmt.Errorf("trace: window end marker without start")
				}
				inWindow = false
				out.Result = workload.Collect(r.Header().Spec, sys, winStart, sys.Time(), sysBefore, nvmBefore)
			}
		}
	}
	sys.FlushRecorder()
	out.Embedded = r.Embedded()
	out.Ops = r.Ops()
	out.Time = sys.Time()
	out.Checksum = r.Checksum()
	out.History = r.History()
	if o.Obs != nil {
		elapsed := time.Since(hostStart)
		rate := uint64(0)
		if elapsed > 0 {
			rate = uint64(float64(out.Ops) / elapsed.Seconds())
		}
		o.Obs.TraceReplayed(out.Ops, rate)
	}
	return out, nil
}

// Rerecord replays the trace in raw under o and re-records the replay
// into dst: the source header under the replay mechanism, the op
// stream, and the replayed window as the embedded result. The op stream
// does not depend on the mechanism, so the re-recorded checksum must
// equal the source's; a mismatch is an error. o.Rec is replaced.
func Rerecord(raw []byte, o ReplayOpts, dst io.Writer) (*Replayed, error) {
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	h := r.Header()
	if o.MechanismSet {
		h.Mechanism = o.Mechanism
	}
	h.Config = h.MachineConfig(h.Mechanism)
	w, err := NewWriter(dst, h)
	if err != nil {
		return nil, err
	}
	o.Rec = w
	rp, err := Replay(bytes.NewReader(raw), o)
	if err != nil {
		return nil, err
	}
	if rp.Result != nil {
		w.SetResult(EmbedResult(rp.Result))
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if got := w.Summary().Checksum; got != rp.Checksum {
		return nil, fmt.Errorf("trace: re-recorded op stream changed (checksum %08x, source %08x)", got, rp.Checksum)
	}
	return rp, nil
}

// VerifyEmbedded checks that the replay reproduced the recording run's
// embedded window byte-for-byte. Meaningful only when the replay ran
// under the recorded mechanism; under a different mechanism the window
// legitimately differs (that difference is the experiment).
func (rp *Replayed) VerifyEmbedded() error {
	if rp.Embedded == nil {
		return fmt.Errorf("trace: no embedded result to verify against")
	}
	return rp.Embedded.Matches(rp.Result)
}

// Info summarizes a trace without building a machine.
type Info struct {
	Header   Header
	Ops      uint64
	Records  uint64
	Ticks    uint64
	Syncs    uint64
	Drains   uint64
	Marks    uint64
	Checksum uint32
	Embedded *EmbeddedResult
}

// ReadInfo decodes and verifies the full trace, returning its summary.
func ReadInfo(src io.Reader) (*Info, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	in := &Info{Header: r.Header()}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch rec.Type {
		case RecTick:
			in.Ticks++
		case RecSync:
			in.Syncs++
		case RecDrain:
			in.Drains++
		case RecMark:
			in.Marks++
		}
	}
	in.Ops = r.Ops()
	in.Records = r.Records()
	in.Checksum = r.Checksum()
	in.Embedded = r.Embedded()
	return in, nil
}

// Diff compares two traces' op streams record by record, ignoring the
// headers and embedded results: two traces are equal exactly when they
// describe the same execution, whatever mechanism or machine each was
// recorded under. It returns nil when equal and a description of the
// first mismatch otherwise.
func Diff(a, b io.Reader) error {
	ra, err := NewReader(a)
	if err != nil {
		return fmt.Errorf("trace a: %w", err)
	}
	rb, err := NewReader(b)
	if err != nil {
		return fmt.Errorf("trace b: %w", err)
	}
	for i := uint64(0); ; i++ {
		reca, erra := ra.Next()
		recb, errb := rb.Next()
		if erra == io.EOF && errb == io.EOF {
			return nil
		}
		if erra == io.EOF || errb == io.EOF {
			return fmt.Errorf("trace: record counts differ: a has %d records, b has %d",
				ra.Records(), rb.Records())
		}
		if erra != nil {
			return fmt.Errorf("trace a: record %d: %w", i, erra)
		}
		if errb != nil {
			return fmt.Errorf("trace b: record %d: %w", i, errb)
		}
		if reca != recb {
			return fmt.Errorf("trace: record %d differs: a=%+v b=%+v", i, reca, recb)
		}
	}
}
