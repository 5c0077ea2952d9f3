package lrp

import (
	"fmt"
	"io"
	"strings"

	"lrp/internal/obs"
	"lrp/internal/stats"
)

// Observer is the machine's observability attachment: a metrics registry
// plus an optional cycle tracer. Build one with NewObserver, place it in
// Config.Obs, and read it back from Machine.Observer() after the run.
type Observer = obs.Observer

// NewObserver builds an Observer sized for the machine cfg describes.
// trace attaches the event tracer (default per-core ring capacity).
// Metrics are always collected; attaching an Observer never changes
// simulated timing.
func NewObserver(cfg Config, trace bool) *Observer {
	return obs.New(obs.Config{
		Cores:       cfg.Cores,
		Controllers: cfg.NVM.Controllers,
		EnableTrace: trace,
	})
}

// histBars converts a histogram snapshot to the pretty-printer's buckets,
// labeling each with its power-of-two value range.
func histBars(s obs.HistSnapshot) []stats.HistBucket {
	out := make([]stats.HistBucket, len(s.Buckets))
	for i, n := range s.Buckets {
		lo, hi := obs.BucketBounds(i)
		var label string
		switch {
		case i == 0:
			label = "0"
		case hi == 0:
			label = fmt.Sprintf("%d+", lo)
		case hi-lo == 1:
			label = fmt.Sprintf("%d", lo)
		default:
			label = fmt.Sprintf("%d-%d", lo, hi-1)
		}
		out[i] = stats.HistBucket{Label: label, Count: n}
	}
	return out
}

// FormatHistogram renders a merged histogram snapshot as an ASCII bar
// chart (empty string when it holds no samples).
func FormatHistogram(title string, s obs.HistSnapshot) string {
	return stats.FormatHistogram(title, histBars(s), 40)
}

// MetricsReport runs every workload under each RP-enforcing mechanism
// with a metrics Observer attached and renders the machine counters the
// registry collected: persist counts and latency quantiles, critical-path
// share, stall cycles per operation, persist-engine scan lengths, and RET
// pressure. The histogram section shows the merged LRP persist-latency
// and RET-occupancy distributions (the acceptance view of §5.2: most
// persists off the critical path, RET occupancy well under capacity).
func MetricsReport(o ExperimentOpts) (string, error) {
	o = o.withDefaults()
	ks := o.kinds(Mechanism.EnforcesRP)
	t := stats.NewTable("Metrics: per-mechanism machine counters",
		"workload", "mech", "persists", "crit%", "p50 lat", "p99 lat",
		"stall cyc/op", "scans", "ret drains", "p99 occ")
	type metricsCell struct {
		cols []string
		lrp  []obs.HistSnapshot // LRP cells: latency, occupancy, residency
	}
	var lrpHists [3]obs.HistSnapshot
	err := grid(o.Parallel, t, cellRows(ks), 1, func(r, _ int) (metricsCell, error) {
		structure, k := Structures[r/len(ks)], ks[r%len(ks)]
		cfg := o.config(k, false)
		cfg.Obs = NewObserver(cfg, false)
		res, m, err := RunWorkload(cfg, o.spec(structure))
		if err != nil {
			return metricsCell{}, fmt.Errorf("%s/%s: %w", structure, k, err)
		}
		reg := m.Observer().Registry()
		lat := reg.MergeHistograms("persist/latency/")
		occ := reg.MergeHistograms("ret/occupancy/")
		scans := reg.MergeHistograms("engine/scan_len/")
		persists := reg.SumCounters("persist/issued/")
		crit := reg.SumCounters("persist/critical/")
		var critPct float64
		if persists > 0 {
			critPct = 100 * float64(crit) / float64(persists)
		}
		var stallPerOp float64
		if res.Ops > 0 {
			stallPerOp = float64(res.Sys.StallCycles) / float64(res.Ops)
		}
		c := metricsCell{cols: []string{
			stats.Count(persists),
			stats.Pct(critPct),
			stats.Count(lat.Quantile(0.5)),
			stats.Count(lat.Quantile(0.99)),
			fmt.Sprintf("%.1f", stallPerOp),
			stats.Count(uint64(scans.Count)),
			stats.Count(reg.SumCounters("ret/watermark_flushes/")),
			stats.Count(occ.Quantile(0.99)),
		}}
		if k == LRP {
			c.lrp = []obs.HistSnapshot{lat, occ, reg.MergeHistograms("ret/residency/")}
		}
		return c, nil
	}, func(c []metricsCell) []string {
		// Rows render in table order, so the merge order is fixed.
		for i, h := range c[0].lrp {
			lrpHists[i].Merge(h)
		}
		return c[0].cols
	})
	t.AddNote("latencies and occupancies from the metrics registry (cycles; log-bucketed, quantiles are bucket upper edges)")
	t.AddNote("threads=%d ops/thread=%d seed=%d", o.Threads, o.Ops, o.Seed)

	var b strings.Builder
	b.WriteString(t.Format())
	for i, title := range []string{
		"LRP persist latency, issue→ack (cycles)",
		"LRP RET occupancy at insert (entries)",
		"LRP RET residency, insert→squash (cycles)",
	} {
		if s := FormatHistogram(title, lrpHists[i]); s != "" {
			b.WriteByte('\n')
			b.WriteString(s)
		}
	}
	return b.String(), err
}

// cellRows labels one table row per (structure, mechanism) cell,
// structure-major: the row set of the per-cell tables.
func cellRows(ks []Mechanism) [][]string {
	var rows [][]string
	for _, structure := range Structures {
		for _, k := range ks {
			rows = append(rows, []string{structure, k.String()})
		}
	}
	return rows
}

// sweepRun is one swept cell of the crash-sweep tables: the run's
// machine, its operation history (nil for a fault sweep) and its sweep.
type sweepRun struct {
	m     *Machine
	h     *OpHistory
	sweep *SweepReport
}

// sweepCell runs structure under k with happens-before tracking and
// sweeps every crash boundary of the run serially. A fault sweep turns
// on the full fault plane (seeded by o.Seed) and an Observer; otherwise
// the run captures its operation history and the sweep checks durable
// linearizability too. An RP-enforcing mechanism must sweep Consistent.
func (o ExperimentOpts) sweepCell(structure string, k Mechanism, faults bool) (sweepRun, error) {
	cfg := o.config(k, false)
	cfg.TrackHB = true
	var r sweepRun
	var rec Recoverable
	var err error
	if faults {
		cfg.Faults = EnableAllFaults(o.Seed)
		cfg.Obs = NewObserver(cfg, false)
		_, r.m, rec, err = RunRecoverableWorkload(cfg, o.spec(structure))
	} else {
		_, r.m, rec, r.h, err = RunRecoverableWorkloadHist(cfg, o.spec(structure))
	}
	if err == nil {
		r.sweep, err = SweepCrash(r.m, SweepOpts{Rec: rec, Hist: r.h, Workers: 1, Seed: o.Seed})
	}
	if err == nil && k.EnforcesRP() && !r.sweep.Consistent() {
		err = fmt.Errorf("%v", r.sweep)
		if r.sweep.FirstDLin != nil {
			err = fmt.Errorf("%w\nfirst: %v", err, r.sweep.FirstDLin)
		}
	}
	if err != nil {
		return sweepRun{}, fmt.Errorf("%s/%s: %w", structure, k, err)
	}
	return r, nil
}

// sweepGrid renders one row of t per sweep cell — every structure under
// every requested non-baseline mechanism — with cols computed inside the
// cell while its machine is live. The cells already saturate the pool,
// and a private serial sweep keeps each cell's fault counters identical
// to a standalone run. It returns the rendered rows' sweeps in order.
func (o ExperimentOpts) sweepGrid(t *Table, faults bool, cols func(sweepRun) []string) ([]*SweepReport, error) {
	ks := o.kinds(nonBaseline)
	type sweepRow struct {
		sweep *SweepReport
		cols  []string
	}
	var sweeps []*SweepReport
	err := grid(o.Parallel, t, cellRows(ks), 1, func(r, _ int) (sweepRow, error) {
		run, err := o.sweepCell(Structures[r/len(ks)], ks[r%len(ks)], faults)
		if err != nil {
			return sweepRow{}, err
		}
		return sweepRow{run.sweep, cols(run)}, nil
	}, func(c []sweepRow) []string {
		sweeps = append(sweeps, c[0].sweep)
		return c[0].cols
	})
	return sweeps, err
}

// FaultReport runs every workload under every non-baseline mechanism with
// the full fault-injection plane enabled (torn lines, transient NVM
// faults with retry/backoff, persist-engine stalls — see FAULTS.md),
// crashes at every durable-state boundary, and tabulates both the fault
// machinery's work and the verdict: for the RP-enforcing mechanisms every
// boundary must be a consistent cut with a clean hardened recovery; ARP's
// counts show the paper's §3 gap surviving into the fault model.
func FaultReport(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	t := stats.NewTable("Fault injection: exhaustive crash-boundary sweeps (all injectors on)",
		"workload", "mech", "boundaries", "RP bad", "dirty walks", "quarantined",
		"retries", "giveups", "torn", "stalls")
	_, err := o.sweepGrid(t, true, func(r sweepRun) []string {
		nst := r.m.NVM().Stats()
		return []string{
			stats.Count(uint64(r.sweep.Boundaries)),
			stats.Count(uint64(r.sweep.RPBad)),
			stats.Count(uint64(r.sweep.DirtyWalks)),
			stats.Count(uint64(r.sweep.Quarantined)),
			stats.Count(nst.Retries),
			stats.Count(nst.Giveups),
			stats.Count(nst.TornApplied),
			stats.Count(r.m.FaultStats().Stalls),
		}
	})
	t.AddNote("every boundary of every RP-mechanism run verified: consistent cut + clean recovery walk")
	t.AddNote("fault rates: tear=0.5 write=0.05 read=0.05 stall=0.1, seed=%d (deterministic)", o.Seed)
	return t, err
}

// DLinReport runs every workload under every non-baseline mechanism with
// operation-history capture, sweeps every crash boundary, and checks
// durable linearizability at each: the recovered state must be a
// happens-before-closed linearization prefix of the recorded history.
// The RP-enforcing mechanisms must sweep clean on every structure; ARP's
// rows quantify the paper's §3 gap as concrete acked-but-lost
// operations (examples/arpgap narrates one).
func DLinReport(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	t := stats.NewTable("Durable linearizability: exhaustive crash-boundary sweeps",
		"workload", "mech", "boundaries", "checked", "violating", "updates")
	sweeps, err := o.sweepGrid(t, false, func(r sweepRun) []string {
		return []string{
			stats.Count(uint64(r.sweep.Boundaries)),
			stats.Count(uint64(r.sweep.DLinChecked)),
			stats.Count(uint64(r.sweep.DLinBad)),
			stats.Count(uint64(r.h.Updates())),
		}
	})
	t.AddNote("every boundary of every RP-mechanism run verified durably linearizable")
	for _, s := range sweeps {
		if s.FirstDLin != nil {
			t.AddNote("gap witness: %v", s.FirstDLin)
			break
		}
	}
	t.AddNote("threads=%d ops/thread=%d seed=%d (deterministic)", o.Threads, o.Ops, o.Seed)
	return t, err
}

// familyOf strips a per-entity suffix (/coreNN, /bankNN, /ctrlN) off a
// metric name, leaving the instrument family.
func familyOf(name string) string {
	i := strings.LastIndex(name, "/")
	if i < 0 {
		return name
	}
	last := name[i+1:]
	if strings.HasPrefix(last, "core") || strings.HasPrefix(last, "bank") || strings.HasPrefix(last, "ctrl") {
		return name[:i]
	}
	return name
}

// MetricsSummary renders a machine's metrics registry as an aggregated
// table (per-core/bank/controller families summed) followed by the key
// histograms. Empty string when the machine has no Observer.
func MetricsSummary(m *Machine) string {
	reg := m.Observer().Registry()
	if reg == nil {
		return ""
	}
	totals := map[string]uint64{}
	var order []string
	for _, mv := range reg.Snapshot() {
		if mv.Kind != obs.KindCounter {
			continue
		}
		fam := familyOf(mv.Name)
		if _, ok := totals[fam]; !ok {
			order = append(order, fam)
		}
		totals[fam] += uint64(mv.Value)
	}
	t := stats.NewTable("Metrics registry (per-entity families summed)", "counter", "total")
	for _, fam := range order {
		if totals[fam] == 0 {
			continue
		}
		t.AddRow(fam, stats.Count(totals[fam]))
	}
	// Gauges (levels, not sums): shown under their full names. The trace
	// subsystem's compression ratio and replay rate live here.
	for _, mv := range reg.Snapshot() {
		if mv.Kind == obs.KindGauge && mv.Value != 0 {
			t.AddRow(mv.Name, fmt.Sprintf("%d", mv.Value))
		}
	}
	var b strings.Builder
	b.WriteString(t.Format())
	for _, h := range []struct {
		title  string
		prefix string
	}{
		{"persist latency, issue→ack (cycles)", "persist/latency/"},
		{"RET occupancy at insert (entries)", "ret/occupancy/"},
		{"RET residency, insert→squash (cycles)", "ret/residency/"},
		{"persist-engine scan length (dirty lines)", "engine/scan_len/"},
		{"NVM controller queue delay (cycles)", "nvm/queue_delay/"},
		{"NVM retry backoff (cycles)", "nvm/backoff/"},
	} {
		if s := FormatHistogram(h.title, reg.MergeHistograms(h.prefix)); s != "" {
			b.WriteByte('\n')
			b.WriteString(s)
		}
	}
	return b.String()
}

// WriteMetricsJSON writes a machine's metrics registry as a
// schema-versioned (lrpmetrics/v1) JSON document with deterministic key
// order: metrics sorted by name, histogram buckets ascending. It errors
// when the machine has no Observer — there is nothing to export.
func WriteMetricsJSON(m *Machine, w io.Writer) error {
	reg := m.Observer().Registry()
	if reg == nil {
		return fmt.Errorf("lrp: machine has no metrics registry (attach an Observer)")
	}
	return reg.WriteJSON(w)
}
