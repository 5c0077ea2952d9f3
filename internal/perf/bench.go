package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lrp/internal/stats"
)

// BenchSchema is the schema tag every BENCH_*.json carries. Bump it on
// any incompatible change to the file layout; Compare refuses to mix
// schemas rather than silently misreading a trajectory.
const BenchSchema = "lrpbench/v1"

// Canonical metric names measured per cell. All are host-side: the
// simulated machine's behavior is pinned by the cell's seed, so reps
// differ only in how fast the host executed the identical simulation.
const (
	// MetricNsPerOp is host nanoseconds per simulated memory operation
	// (lower is better; the headline simulator-throughput number).
	MetricNsPerOp = "ns_per_op"
	// MetricSimopsPerSec is simulated memory operations per host second
	// (the inverse of ns_per_op, kept for dashboards).
	MetricSimopsPerSec = "simops_per_sec"
	// MetricBytesPerOp is heap bytes allocated per simulated op.
	MetricBytesPerOp = "bytes_per_op"
	// MetricAllocsPerOp is heap allocations per simulated op.
	MetricAllocsPerOp = "allocs_per_op"
	// MetricWallNs is the total host wall time of one rep.
	MetricWallNs = "wall_ns"
	// MetricGrantsPerOp is scheduler grants (thread resumptions) per
	// simulated op — the fraction of operations that could NOT ride the
	// kernel's run-ahead fast path. Unlike the timing metrics it is
	// fully deterministic (a function of the seed and the kernel, not
	// of host speed), so its compare verdict is noise-free: any growth
	// is a structural scheduler regression, gateable even on hosts too
	// erratic to trust ns_per_op.
	MetricGrantsPerOp = "sched_grants_per_op"
)

// CompareMetrics are the lower-is-better metrics a regression verdict is
// computed over. simops_per_sec is excluded (it is 1e9/ns_per_op) and
// wall_ns is excluded (redundant with ns_per_op at fixed sim_ops).
var CompareMetrics = []string{MetricNsPerOp, MetricBytesPerOp, MetricAllocsPerOp, MetricGrantsPerOp}

// BenchFile is one point of the BENCH_*.json trajectory: a full grid of
// benchmark cells plus the environment fingerprint they were measured in.
type BenchFile struct {
	Schema  string      `json:"schema"`
	Created string      `json:"created,omitempty"` // RFC3339; ignored by Compare
	Env     EnvInfo     `json:"env"`
	Grid    GridInfo    `json:"grid"`
	Cells   []BenchCell `json:"cells"`
}

// EnvInfo fingerprints the measuring host. Compare prints both sides'
// fingerprints so a cross-machine comparison is visibly cross-machine.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// String renders the fingerprint on one line.
func (e EnvInfo) String() string {
	s := fmt.Sprintf("%s %s/%s gomaxprocs=%d cpus=%d", e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU)
	if e.CPUModel != "" {
		s += " (" + e.CPUModel + ")"
	}
	return s
}

// HostEnv fingerprints the current process's environment.
func HostEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name (linux: /proc/cpuinfo).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			k = strings.TrimSpace(k)
			if k == "model name" || k == "Processor" {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// GridInfo records the benchmark grid parameters, so a file is
// self-describing and a rerun can reproduce it exactly.
type GridInfo struct {
	Workloads []string `json:"workloads"`
	Mechs     []string `json:"mechanisms"`
	Threads   []int    `json:"threads"`
	Ops       int      `json:"ops_per_thread"`
	Reps      int      `json:"reps"`
	Seed      uint64   `json:"seed"`
	Short     bool     `json:"short,omitempty"`
}

// BenchCell is one grid point: a workload × mechanism × thread-count
// simulation at a pinned seed, measured over Grid.Reps repetitions.
type BenchCell struct {
	Workload  string `json:"workload"`
	Mechanism string `json:"mechanism"`
	Threads   int    `json:"threads"`
	Size      int    `json:"size"`
	// SimOps and SimCycles are the cell's simulated work — identical
	// across reps (the simulation is deterministic) and across hosts.
	// Compare flags cells whose simulated work drifted between files:
	// their host metrics describe different computations.
	SimOps    uint64 `json:"sim_ops"`
	SimCycles int64  `json:"sim_cycles"`
	// Metrics holds the host measurements; encoding/json emits map keys
	// sorted, so files are byte-stable for a given measurement.
	Metrics map[string]Dist `json:"metrics"`
	// PhaseNs is the per-phase host-time breakdown from the phase
	// profiler (median across reps), when collected.
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`
}

// Key identifies a cell across files.
func (c BenchCell) Key() string {
	return c.Workload + "/" + c.Mechanism + "/t" + strconv.Itoa(c.Threads)
}

// Dist summarizes one metric's repetitions with noise-robust statistics:
// the median and the median absolute deviation (MAD). Medians shrug off
// the one rep a CI runner descheduled; the MAD is the noise floor the
// compare verdict scales with.
type Dist struct {
	Median float64   `json:"median"`
	MAD    float64   `json:"mad"`
	Reps   []float64 `json:"reps,omitempty"`
}

// NewDist computes the median/MAD summary of samples (kept verbatim in
// Reps for transparency).
func NewDist(samples []float64) Dist {
	d := Dist{Reps: append([]float64(nil), samples...)}
	d.Median = Median(samples)
	dev := make([]float64, len(samples))
	for i, v := range samples {
		dev[i] = math.Abs(v - d.Median)
	}
	d.MAD = Median(dev)
	return d
}

// Median returns the median of xs (0 when empty). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Validate checks the file's schema tag and structural invariants.
func (f *BenchFile) Validate() error {
	if f.Schema != BenchSchema {
		return fmt.Errorf("perf: unsupported bench schema %q (want %q)", f.Schema, BenchSchema)
	}
	seen := make(map[string]bool, len(f.Cells))
	for _, c := range f.Cells {
		k := c.Key()
		if seen[k] {
			return fmt.Errorf("perf: duplicate bench cell %s", k)
		}
		seen[k] = true
		if c.SimOps == 0 {
			return fmt.Errorf("perf: bench cell %s has zero simulated ops", k)
		}
		if len(c.Metrics) == 0 {
			return fmt.Errorf("perf: bench cell %s has no metrics", k)
		}
	}
	return nil
}

// Marshal renders the file as stable, human-diffable JSON: struct fields
// in declaration order, map keys sorted (encoding/json's contract), one
// trailing newline.
func (f *BenchFile) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile validates and writes the file to path.
func (f *BenchFile) WriteFile(path string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	b, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadBenchFile loads and validates a BENCH_*.json.
func ReadBenchFile(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &f, nil
}

// Stamp records the creation time on the file (split out so tests and
// deterministic pipelines can skip it).
func (f *BenchFile) Stamp(now time.Time) {
	f.Created = now.UTC().Format(time.RFC3339)
}

// Table renders the file as a human summary table.
func (f *BenchFile) Table() string {
	t := stats.NewTable("lrpbench: host throughput per cell (median ± MAD over reps)",
		"workload", "mech", "thr", "sim ops", "ns/op", "±", "simops/s", "B/op", "allocs/op")
	for _, c := range f.Cells {
		ns := c.Metrics[MetricNsPerOp]
		ops := c.Metrics[MetricSimopsPerSec]
		by := c.Metrics[MetricBytesPerOp]
		al := c.Metrics[MetricAllocsPerOp]
		t.AddRow(c.Workload, c.Mechanism, strconv.Itoa(c.Threads),
			stats.Count(c.SimOps),
			fmt.Sprintf("%.0f", ns.Median),
			fmt.Sprintf("%.0f", ns.MAD),
			fmt.Sprintf("%.0f", ops.Median),
			fmt.Sprintf("%.0f", by.Median),
			fmt.Sprintf("%.1f", al.Median))
	}
	t.AddNote("reps=%d ops/thread=%d seed=%d", f.Grid.Reps, f.Grid.Ops, f.Grid.Seed)
	t.AddNote("env: %s", f.Env)
	return t.Format()
}
