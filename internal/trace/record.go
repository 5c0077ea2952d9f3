package trace

import (
	"fmt"
	"io"

	"lrp/internal/dlin"
	"lrp/internal/memsys"
	"lrp/internal/workload"
)

// Record runs one workload live under cfg's mechanism with a trace
// Writer attached, streaming the op stream to dst. The live measured
// window is embedded in the trace footer so replays can verify
// themselves against it. Returns the live result and the capture
// summary.
func Record(cfg memsys.Config, spec workload.Spec, dst io.Writer) (*workload.Result, *memsys.System, Summary, error) {
	res, sys, _, _, sum, err := recordRun(cfg, spec, dst, false)
	return res, sys, sum, err
}

// RecordHistory is Record plus abstract-operation history capture: the
// trace gains footer-class op-history records, and the live run's
// Recoverable handle and history come back alongside the usual outputs.
// The op stream — and so the checksum — is identical to what Record
// captures for the same (cfg, spec): op-history records ride outside the
// checksummed stream.
func RecordHistory(cfg memsys.Config, spec workload.Spec, dst io.Writer) (*workload.Result, *memsys.System, workload.Recoverable, *dlin.History, Summary, error) {
	return recordRun(cfg, spec, dst, true)
}

func recordRun(cfg memsys.Config, spec workload.Spec, dst io.Writer, hist bool) (*workload.Result, *memsys.System, workload.Recoverable, *dlin.History, Summary, error) {
	fail := func(err error) (*workload.Result, *memsys.System, workload.Recoverable, *dlin.History, Summary, error) {
		return nil, nil, nil, nil, Summary{}, err
	}
	if cfg.Rec != nil {
		return fail(fmt.Errorf("trace: config already carries a recorder"))
	}
	if cfg.Faults.Enabled() {
		return fail(fmt.Errorf("trace: fault injection cannot be recorded (traces capture the fault-free op stream)"))
	}
	w, err := NewWriter(dst, HeaderFor(cfg, spec))
	if err != nil {
		return fail(err)
	}
	w.SetObserver(cfg.Obs)
	cfg.Rec = w
	var (
		res *workload.Result
		sys *memsys.System
		rec workload.Recoverable
		h   *dlin.History
	)
	if hist {
		res, sys, rec, h, err = workload.RunRecoverableHist(cfg, spec)
	} else {
		res, sys, rec, err = workload.RunRecoverable(cfg, spec)
	}
	if err != nil {
		return fail(err)
	}
	sys.FlushRecorder()
	w.SetResult(EmbedResult(res))
	if err := w.Close(); err != nil {
		return fail(err)
	}
	return res, sys, rec, h, w.Summary(), nil
}
