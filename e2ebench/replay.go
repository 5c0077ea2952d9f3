package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"lrp"
	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/perf"
	"lrp/internal/trace"
)

// replayKV replays one kv trace, recorded under NOP from the seed, under
// every registered mechanism. trace.Replay drives memsys.Step directly, so
// the scheduler is bypassed and the trace codec carries much of the cost.
type replayKV struct {
	trace []byte
	sum   lrp.TraceSummary
	ref   []replayOut // per mechanism, from reference()
}

// replayOut is what one replay contributes to the job's outputs.
type replayOut struct {
	mech     string
	ops      uint64
	time     lrp.Time
	exec     lrp.Time
	checksum uint32
	// Machine counters over the whole replay.
	persists, critical, stall uint64
}

func setupReplay(p params) (bench, error) {
	cfg := lrp.DefaultConfig().WithMechanism(lrp.NOP)
	cfg.Cores = 16
	spec := lrp.Spec{Structure: "kv", Threads: 8, InitialSize: 4096, OpsPerThread: 200, Seed: p.seed}
	if p.tiny {
		spec.Threads, spec.InitialSize, spec.OpsPerThread = 4, 256, 20
	}
	var buf bytes.Buffer
	_, _, sum, err := lrp.RecordTrace(cfg, spec, &buf)
	if err != nil {
		return nil, err
	}
	return &replayKV{trace: buf.Bytes(), sum: sum}, nil
}

// replay replays the trace under k and checks it: ReplayTrace verifies
// every load and CAS outcome against the recording, the op stream must be
// the recorded one, and the NOP replay must reproduce the trace's
// embedded measured window.
func (r *replayKV) replay(k lrp.Mechanism) (replayOut, error) {
	rp, err := lrp.ReplayTrace(bytes.NewReader(r.trace), lrp.ReplayOpts{Mechanism: k, MechanismSet: true})
	if err != nil {
		return replayOut{}, fmt.Errorf("replay under %s: %w", k, err)
	}
	if rp.Ops != r.sum.Ops || rp.Checksum != r.sum.Checksum {
		return replayOut{}, fmt.Errorf("replay under %s: %d ops checksum %08x, recorded %d ops checksum %08x",
			k, rp.Ops, rp.Checksum, r.sum.Ops, r.sum.Checksum)
	}
	if rp.Result == nil {
		return replayOut{}, fmt.Errorf("replay under %s: trace has no measured window", k)
	}
	if k == lrp.NOP {
		if err := rp.VerifyEmbedded(); err != nil {
			return replayOut{}, fmt.Errorf("NOP replay: %w", err)
		}
	}
	st := rp.Sys.Stats()
	return replayOut{k.String(), rp.Ops, rp.Time, rp.Result.ExecTime, rp.Checksum,
		st.Persists, st.CriticalPersists, st.StallCycles}, nil
}

func (r *replayKV) job(gap func()) (jobOut, error) {
	outs, err := r.replayAll(gap)
	if err != nil {
		return jobOut{}, err
	}
	var work float64
	for _, o := range outs {
		work += float64(o.ops)
	}
	return jobOut{work: work, fp: fmt.Sprint(outs)}, nil
}

// replayAll replays the trace under every mechanism, calling gap between
// replays.
func (r *replayKV) replayAll(gap func()) ([]replayOut, error) {
	var outs []replayOut
	for i, k := range lrp.Mechanisms() {
		if i > 0 {
			gap()
		}
		o, err := r.replay(k)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

func (r *replayKV) reference() (err error) {
	r.ref, err = r.replayAll(func() {})
	return err
}

// traced times decoding alone (ReadTraceInfo), then replays the trace
// under every mechanism with the machine's phase profiler attached. Each
// profiled replay must reproduce the untraced ReplayTrace's outputs.
func (r *replayKV) traced(tr *tracer) (tracedOut, error) {
	v := map[string]float64{}
	start := time.Now()
	id := tr.begin("trace.decode")
	info, err := lrp.ReadTraceInfo(bytes.NewReader(r.trace))
	tr.end(id)
	if err != nil {
		return tracedOut{}, err
	}
	if info.Ops != r.sum.Ops || info.Checksum != r.sum.Checksum {
		return tracedOut{}, fmt.Errorf("decoded %d ops checksum %08x, recorded %d ops checksum %08x",
			info.Ops, info.Checksum, r.sum.Ops, r.sum.Checksum)
	}
	decode := time.Since(start)
	v["trace.decode_s"] = decode.Seconds()
	v["trace.decode_ns_per_op"] = perUnit(float64(decode.Nanoseconds()), float64(info.Ops))
	covered := decode

	var phases phaseTotals
	for i, k := range lrp.Mechanisms() {
		prof := perf.New(perf.Options{})
		start := time.Now()
		id := tr.begin("trace.replay." + k.String())
		o, err := r.replayProfiled(k, prof)
		tr.end(id)
		if err != nil {
			return tracedOut{}, err
		}
		if i >= len(r.ref) || o != r.ref[i] {
			return tracedOut{}, fmt.Errorf("profiled replay under %s: %+v, ReplayTrace %+v", k, o, r.ref)
		}
		d := time.Since(start)
		v["trace.replay_ns_per_op."+k.String()] = perUnit(float64(d.Nanoseconds()), float64(o.ops))
		phases.add(prof)
		covered += time.Duration(prof.TotalNs())
		v["sim.ops"] += float64(o.ops)
		v["sim.exec_cycles"] += float64(o.exec)
		v["sim.persists"] += float64(o.persists)
		v["sim.critical_persists"] += float64(o.critical)
		v["sim.stall_cycles"] += float64(o.stall)
	}
	phases.report(v)
	// The replay loop times each record decode as trace I/O.
	v["trace.replay_decode_s"] = float64(phases.traceIO) / 1e9
	return tracedOut{layers: v, covered: covered}, nil
}

// replayProfiled is trace.Replay's loop on a machine with prof attached,
// with each record decode timed as trace I/O. It checks every load and
// CAS outcome against the recording, as Replay does.
func (r *replayKV) replayProfiled(k lrp.Mechanism, prof *perf.Profiler) (replayOut, error) {
	rd, err := trace.NewReader(bytes.NewReader(r.trace))
	if err != nil {
		return replayOut{}, err
	}
	cfg := rd.Header().MachineConfig(k)
	cfg.Perf = prof
	sys, err := memsys.New(cfg)
	if err != nil {
		return replayOut{}, err
	}
	var winStart lrp.Time
	var exec lrp.Time
	for {
		prof.Start(perf.PhaseTraceIO)
		rec, err := rd.Next()
		prof.End()
		if err == io.EOF {
			break
		}
		if err != nil {
			return replayOut{}, err
		}
		switch rec.Type {
		case trace.RecOp:
			v, ok := sys.Step(rec.TID, rec.Work, rec.Op)
			diverged := rec.Op.Kind == isa.Load && v != rec.Val ||
				rec.Op.Kind == isa.CAS && (v != rec.Val || ok != rec.OK)
			if diverged {
				return replayOut{}, fmt.Errorf("profiled replay under %s diverged at op %d: %v", k, rd.Ops(), rec.Op)
			}
		case trace.RecTick:
			sys.AdvanceClock(rec.TID, rec.Work)
		case trace.RecSync:
			sys.SyncClocks()
		case trace.RecDrain:
			sys.Drain()
		case trace.RecMark:
			sys.Mark(rec.Mark)
			switch rec.Mark {
			case memsys.MarkWindowStart:
				winStart = sys.Time()
			case memsys.MarkWindowEnd:
				exec = sys.Time() - winStart
			}
		}
	}
	st := sys.Stats()
	return replayOut{k.String(), rd.Ops(), sys.Time(), exec, rd.Checksum(),
		st.Persists, st.CriticalPersists, st.StallCycles}, nil
}
