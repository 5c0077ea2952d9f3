package perf

import (
	"fmt"
	"sort"
	"strconv"

	"lrp/internal/stats"
)

// CompareOpts tunes the regression verdict.
type CompareOpts struct {
	// Threshold is the minimum relative delta (fraction of the old
	// median) that can ever count as a regression. Defaults to 0.10.
	Threshold float64
	// NoiseMult scales the measured noise floor: a delta only counts
	// when it exceeds NoiseMult × (oldMAD+newMAD)/oldMedian. Defaults
	// to 3.
	NoiseMult float64
	// Metrics to compare (lower is better). Defaults to CompareMetrics.
	Metrics []string
	// NoCalibrate disables host-speed calibration. By default the
	// verdict on time-derived metrics (ns_per_op, wall_ns) is taken on
	// the delta *relative to the grid*: the median new/old ratio across
	// every compared cell is divided out first. Absolute host timings
	// shift wholesale between machines, runners and even hours on a
	// shared VM (steal time), which per-rep MADs cannot see; a real
	// performance regression is differential — it moves specific cells
	// against the rest of the grid — while a uniform shift moves all of
	// them together. Count metrics (bytes_per_op, allocs_per_op) are
	// host-speed independent and are always judged absolutely. The raw
	// delta is still reported per row; only the verdict is calibrated.
	NoCalibrate bool
}

// timeDerived marks the metrics whose absolute values scale with host
// speed and therefore go through calibration.
var timeDerived = map[string]bool{
	MetricNsPerOp:      true,
	MetricWallNs:       true,
	MetricSimopsPerSec: true,
}

// minCalibrationCells is the smallest comparable-cell count calibration
// trusts: a median ratio over a handful of cells is itself noise, and a
// tiny grid gives a differential regression too much leverage over its
// own yardstick. Below this, verdicts fall back to absolute deltas.
const minCalibrationCells = 6

// timeEst is the point estimate the verdict uses for metric m: the best
// (minimum) rep for time-derived metrics — elapsed-time noise is
// strictly additive (a descheduled or stolen slice only ever makes a rep
// slower), so the fastest rep is the cleanest observation a file
// carries, where the median still moves when two of three reps were hit
// — and the median otherwise.
func timeEst(d Dist, m string) float64 {
	if timeDerived[m] && len(d.Reps) > 0 {
		min := d.Reps[0]
		for _, v := range d.Reps[1:] {
			if v < min {
				min = v
			}
		}
		return min
	}
	return d.Median
}

func (o CompareOpts) withDefaults() CompareOpts {
	if o.Threshold == 0 {
		o.Threshold = 0.10
	}
	if o.NoiseMult == 0 {
		o.NoiseMult = 3
	}
	if o.Metrics == nil {
		o.Metrics = CompareMetrics
	}
	return o
}

// Verdict classifies one metric's movement between two bench files.
type Verdict string

const (
	// VerdictOK: the delta is inside the regression floor.
	VerdictOK Verdict = "ok"
	// VerdictNoise: the delta exceeds Threshold but not the measured
	// noise floor — tolerated, but worth a look if it recurs.
	VerdictNoise Verdict = "noise"
	// VerdictImproved: the metric got better by more than the floor.
	VerdictImproved Verdict = "improved"
	// VerdictRegressed: the metric got worse by more than the floor.
	VerdictRegressed Verdict = "REGRESSED"
)

// CompareRow is one (cell, metric) comparison.
type CompareRow struct {
	Cell   string `json:"cell"`
	Metric string `json:"metric"`
	// Old/New are the point estimates the verdict compared: the best
	// (minimum) rep for time-derived metrics, the median otherwise
	// (see timeEst).
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
	Delta float64 `json:"delta"` // (new-old)/old, raw
	// CalDelta is the delta after dividing the grid-wide host-speed
	// ratio out of the new value; equals Delta when calibration did not
	// apply (count metric, too few cells, or NoCalibrate). The verdict
	// is taken on this value.
	CalDelta float64 `json:"cal_delta"`
	Floor    float64 `json:"floor"` // regression floor actually applied
	Verdict  Verdict `json:"verdict"`
}

// CompareReport is the full verdict of comparing two bench files.
type CompareReport struct {
	Opts   CompareOpts  `json:"opts"`
	OldEnv EnvInfo      `json:"old_env"`
	NewEnv EnvInfo      `json:"new_env"`
	Rows   []CompareRow `json:"rows"`
	// Missing lists old cells absent from the new file (a shrunken new
	// grid — e.g. a -short run vs the full baseline — is compared on
	// the intersection). Added lists new cells absent from the old.
	Missing []string `json:"missing,omitempty"`
	Added   []string `json:"added,omitempty"`
	// Drift lists cells whose simulated work (sim_ops / sim_cycles)
	// differs between files: their host deltas are not comparable and
	// are excluded from the verdict.
	Drift []string `json:"drift,omitempty"`
	// HostSpeed is the grid-wide median new/old ns_per_op ratio divided
	// out of time-derived metrics before the verdict — the two files'
	// relative host speed. Zero when calibration did not apply.
	HostSpeed float64 `json:"host_speed_ratio,omitempty"`

	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// Compare evaluates new against old cell by cell. Both files must carry
// the current schema (Validate enforces it on load).
func Compare(old, new *BenchFile, opts CompareOpts) *CompareReport {
	opts = opts.withDefaults()
	rep := &CompareReport{Opts: opts, OldEnv: old.Env, NewEnv: new.Env}

	oldCells := make(map[string]BenchCell, len(old.Cells))
	for _, c := range old.Cells {
		oldCells[c.Key()] = c
	}
	newKeys := make(map[string]bool, len(new.Cells))

	// Host-speed calibration: the median ns_per_op ratio over every
	// comparable cell. Computed before the verdict pass so every row is
	// judged against the same yardstick.
	cal := 1.0
	if !opts.NoCalibrate {
		var ratios []float64
		for _, nc := range new.Cells {
			oc, ok := oldCells[nc.Key()]
			if !ok || oc.SimOps != nc.SimOps || oc.SimCycles != nc.SimCycles {
				continue
			}
			od, ook := oc.Metrics[MetricNsPerOp]
			nd, nok := nc.Metrics[MetricNsPerOp]
			if !ook || !nok {
				continue
			}
			ov, nv := timeEst(od, MetricNsPerOp), timeEst(nd, MetricNsPerOp)
			if ov > 0 && nv > 0 {
				ratios = append(ratios, nv/ov)
			}
		}
		if len(ratios) >= minCalibrationCells {
			cal = Median(ratios)
			rep.HostSpeed = cal
		}
	}

	for _, nc := range new.Cells {
		k := nc.Key()
		newKeys[k] = true
		oc, ok := oldCells[k]
		if !ok {
			rep.Added = append(rep.Added, k)
			continue
		}
		if oc.SimOps != nc.SimOps || oc.SimCycles != nc.SimCycles {
			rep.Drift = append(rep.Drift, k)
			continue
		}
		for _, m := range opts.Metrics { // maprange:ok — a []string; Cell.Metrics is the map of that name
			od, ook := oc.Metrics[m]
			nd, nok := nc.Metrics[m]
			if !ook || !nok {
				continue
			}
			ov, nv := timeEst(od, m), timeEst(nd, m)
			if ov == 0 {
				continue
			}
			delta := (nv - ov) / ov
			calDelta := delta
			if cal != 1 && timeDerived[m] {
				calDelta = (nv/cal - ov) / ov
			}
			noise := opts.NoiseMult * (od.MAD + nd.MAD) / ov
			floor := opts.Threshold
			if noise > floor {
				floor = noise
			}
			v := VerdictOK
			switch {
			case calDelta > floor:
				v = VerdictRegressed
				rep.Regressions++
			case calDelta < -floor:
				v = VerdictImproved
				rep.Improvements++
			case calDelta > opts.Threshold || calDelta < -opts.Threshold:
				v = VerdictNoise
			}
			rep.Rows = append(rep.Rows, CompareRow{
				Cell: k, Metric: m, Old: ov, New: nv,
				Delta: delta, CalDelta: calDelta, Floor: floor, Verdict: v,
			})
		}
	}
	for k := range oldCells { // maprange:ok — Missing is sorted below
		if !newKeys[k] {
			rep.Missing = append(rep.Missing, k)
		}
	}
	sort.Strings(rep.Missing)
	sort.Strings(rep.Added)
	sort.Strings(rep.Drift)
	return rep
}

// Pass reports whether the comparison found zero regressions.
func (r *CompareReport) Pass() bool { return r.Regressions == 0 }

// Table renders the per-metric delta table. When host-speed calibration
// applied, a "cal" column carries the calibrated delta the verdict was
// taken on, next to the raw delta.
func (r *CompareReport) Table() string {
	calibrated := r.HostSpeed != 0
	headers := []string{"cell", "metric", "old", "new", "delta", "floor", "verdict"}
	if calibrated {
		headers = []string{"cell", "metric", "old", "new", "delta", "cal", "floor", "verdict"}
	}
	t := stats.NewTable("lrpbench compare: new vs old (lower is better)", headers...)
	for _, row := range r.Rows {
		cols := []string{row.Cell, row.Metric,
			fmt.Sprintf("%.1f", row.Old),
			fmt.Sprintf("%.1f", row.New),
			fmt.Sprintf("%+.1f%%", 100*row.Delta),
			fmt.Sprintf("%.1f%%", 100*row.Floor),
			string(row.Verdict)}
		if calibrated {
			cols = append(cols[:5], append([]string{fmt.Sprintf("%+.1f%%", 100*row.CalDelta)}, cols[5:]...)...)
		}
		t.AddRow(cols...)
	}
	t.AddNote("threshold=%.0f%% noise-mult=%.0fx; floor = max(threshold, noise-mult*(oldMAD+newMAD)/old)",
		100*r.Opts.Threshold, r.Opts.NoiseMult)
	if calibrated {
		t.AddNote("host-speed calibration x%.3f (median new/old ns_per_op): time metrics judged on the cal column — uniform machine-speed shifts don't flag; count metrics stay absolute", r.HostSpeed)
	}
	if len(r.Drift) > 0 {
		t.AddNote("drift (simulated work changed, excluded): %v", r.Drift)
	}
	if len(r.Missing) > 0 {
		t.AddNote("cells only in old (compared on intersection): %s", strconv.Itoa(len(r.Missing)))
	}
	if len(r.Added) > 0 {
		t.AddNote("cells only in new: %v", r.Added)
	}
	return t.Format()
}

// Summary renders the one-line verdict.
func (r *CompareReport) Summary() string {
	if r.Pass() {
		return fmt.Sprintf("PASS: 0 regressions, %d improvements, %d cells compared", r.Improvements, len(r.Rows))
	}
	return fmt.Sprintf("FAIL: %d regressions, %d improvements, %d cells compared", r.Regressions, r.Improvements, len(r.Rows))
}
