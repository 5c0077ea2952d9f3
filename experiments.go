package lrp

import (
	"fmt"
	"slices"
	"strings"

	"lrp/internal/exp"
	"lrp/internal/nvm"
	"lrp/internal/stats"
)

// ExperimentOpts scales the paper's experiments to the host's patience.
// The zero value gives the defaults recorded in EXPERIMENTS.md.
type ExperimentOpts struct {
	// Threads is the worker count (paper: 32; default here 16).
	Threads int
	// Ops is the measured operations per thread (default 100).
	Ops int
	// SizeScale multiplies the default per-structure sizes (default 1).
	SizeScale float64
	// Seed makes every run reproducible. Zero means "use the default
	// (7)" unless SeedSet marks it explicit.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so an experiment can run
	// with the literal seed 0 (the zero value of Seed alone cannot be
	// told apart from "unset"). The CLIs set it whenever -seed is given.
	SeedSet bool
	// Cores overrides the machine's core count (default max(Threads, 16)).
	Cores int
	// Parallel is the number of OS worker goroutines the experiment
	// matrix is sharded across (0: one per CPU; 1: serial). Each cell of
	// the matrix owns a private simulated machine and results are merged
	// in cell order, so every worker count produces byte-identical
	// tables.
	Parallel int
	// Mechs restricts the mechanism columns to a subset of the
	// registered mechanisms (nil: all registered). The NOP baseline
	// always runs regardless; columns keep registry order.
	Mechs []Mechanism
}

// kinds is every requested mechanism (Mechs; nil: all registered) that
// keep accepts, in registry order.
func (o ExperimentOpts) kinds(keep func(Mechanism) bool) []Mechanism {
	var ks []Mechanism
	for _, k := range Mechanisms() {
		if keep(k) && (len(o.Mechs) == 0 || slices.Contains(o.Mechs, k)) {
			ks = append(ks, k)
		}
	}
	return ks
}

// rpKinds is the NOP baseline followed by the requested RP-enforcing
// mechanisms: the columns of the normalized-time comparisons.
func (o ExperimentOpts) rpKinds() []Mechanism {
	return append([]Mechanism{NOP}, o.kinds(Mechanism.EnforcesRP)...)
}

// overheadKinds is the NOP baseline followed by the requested headline
// mechanisms: the columns of the overhead-over-volatile sweeps.
func (o ExperimentOpts) overheadKinds() []Mechanism {
	return append([]Mechanism{NOP}, o.kinds(Mechanism.Headline)...)
}

// nonBaseline keeps every mechanism that persists anything.
func nonBaseline(k Mechanism) bool { return !k.Baseline() }

func kindNames(ks []Mechanism) []string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return names
}

func (o ExperimentOpts) withDefaults() ExperimentOpts {
	if o.Threads == 0 {
		o.Threads = 16
	}
	if o.Ops == 0 {
		o.Ops = 100
	}
	if o.SizeScale == 0 {
		o.SizeScale = 1
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = 7
	}
	o.SeedSet = true
	if o.Cores == 0 {
		o.Cores = o.Threads
		if o.Cores < 16 {
			o.Cores = 16
		}
	}
	return o
}

// defaultSizes are the per-structure initial sizes. The paper fills 64K
// elements everywhere; the pointer-chasing linked list is O(n) per
// operation and is scaled down so a software-simulated machine finishes
// in seconds. EXPERIMENTS.md records the substitution.
var defaultSizes = map[string]int{
	"linkedlist": 512,
	"hashmap":    16384,
	"bstree":     8192,
	"skiplist":   8192,
	"queue":      2048,
	// kv's InitialSize is the total key space (tenants × keys/tenant);
	// the service's working set, like the hashmap's, can be large.
	"kv": 4096,
}

func (o ExperimentOpts) size(structure string) int {
	n := int(float64(defaultSizes[structure]) * o.SizeScale)
	if n < 16 {
		n = 16
	}
	return n
}

func (o ExperimentOpts) spec(structure string) Spec {
	return Spec{
		Structure:    structure,
		Threads:      o.Threads,
		InitialSize:  o.size(structure),
		OpsPerThread: o.Ops,
		Seed:         o.Seed,
	}
}

func (o ExperimentOpts) config(k Mechanism, uncached bool) Config {
	cfg := DefaultConfig().WithMechanism(k)
	cfg.Cores = o.Cores
	if uncached {
		cfg.NVM.Mode = nvm.Uncached
	}
	return cfg
}

// grid runs an experiment matrix of len(rows) × width independent
// cells on the pool (workers as in exp.Workers) and appends to t, in
// matrix order, one row per matrix row whose cells all succeeded: the
// row's labels followed by render(its cells' results). A failing cell
// never aborts the matrix; the returned error joins every failure.
func grid[T any](workers int, t *Table, rows [][]string, width int,
	run func(row, col int) (T, error), render func([]T) []string) error {
	ok := make([]bool, len(rows)*width)
	rs, err := exp.Map(workers, len(ok), func(i int) (T, error) {
		v, err := run(i/width, i%width)
		ok[i] = err == nil
		return v, err
	})
	for r, label := range rows {
		if !slices.Contains(ok[r*width:(r+1)*width], false) {
			t.AddRow(append(slices.Clone(label), render(rs[r*width:(r+1)*width])...)...)
		}
	}
	return err
}

// cell is one workload run of an experiment matrix: a machine
// configuration plus a workload spec, labelled for error reports. Cells
// share nothing — each run builds a private machine.
type cell struct {
	label string
	cfg   Config
	spec  Spec
}

func (o ExperimentOpts) cellOf(k Mechanism, structure string, uncached bool) cell {
	return cell{
		label: fmt.Sprintf("%s/%s", structure, k),
		cfg:   o.config(k, uncached),
		spec:  o.spec(structure),
	}
}

// run executes the cell's workload; an error carries the cell's label.
func (c cell) run() (*Result, error) {
	res, _, err := RunWorkload(c.cfg, c.spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.label, err)
	}
	return res, nil
}

// workloadGrid is grid over workload cells, cellAt describing each.
func (o ExperimentOpts) workloadGrid(t *Table, rows [][]string, width int,
	cellAt func(row, col int) cell, render func([]*Result) []string) error {
	return grid(o.Parallel, t, rows, width, func(r, c int) (*Result, error) {
		return cellAt(r, c).run()
	}, render)
}

// ratios renders each cell's execution time over the row's first
// (baseline) cell.
func ratios(rs []*Result) []string {
	base := float64(rs[0].ExecTime)
	cols := make([]string, 0, len(rs)-1)
	for _, r := range rs[1:] {
		cols = append(cols, stats.Ratio(float64(r.ExecTime)/base))
	}
	return cols
}

// overheads renders each cell's execution-time overhead over the row's
// first (baseline) cell, in percent.
func overheads(rs []*Result) []string {
	base := float64(rs[0].ExecTime)
	cols := make([]string, 0, len(rs)-1)
	for _, r := range rs[1:] {
		cols = append(cols, stats.Pct(100*(float64(r.ExecTime)-base)/base))
	}
	return cols
}

// labels makes one single-column row label per name.
func labels(names []string) [][]string {
	rows := make([][]string, len(names))
	for i, n := range names {
		rows[i] = []string{n}
	}
	return rows
}

func normalizedTable(title string, o ExperimentOpts, uncached bool) (*Table, error) {
	ks := o.rpKinds()
	t := stats.NewTable(title, append([]string{"workload"}, kindNames(ks[1:])...)...)
	err := o.workloadGrid(t, labels(Structures), len(ks), func(r, c int) cell {
		return o.cellOf(ks[c], Structures[r], uncached)
	}, ratios)
	t.AddNote("execution time normalized to NOP (volatile); lower is better")
	t.AddNote("threads=%d ops/thread=%d sizes=%v seed=%d", o.Threads, o.Ops, sizesNote(o), o.Seed)
	return t, err
}

func sizesNote(o ExperimentOpts) map[string]int {
	m := make(map[string]int, len(Structures))
	for _, s := range Structures {
		m[s] = o.size(s)
	}
	return m
}

// Fig5 regenerates Figure 5: execution time of SB, BB and LRP normalized
// to volatile execution, per workload, in cached mode.
func Fig5(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	return normalizedTable("Figure 5: execution time normalized to No-Persistency (cached mode)", o, false)
}

// Fig7 regenerates Figure 7: the same comparison with the NVM-side DRAM
// cache disabled (uncached mode, 350-cycle persists).
func Fig7(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	return normalizedTable("Figure 7: execution time normalized to No-Persistency (uncached mode)", o, true)
}

// Fig6 regenerates Figure 6: the percentage of write backs on the
// critical path of execution, BB versus LRP.
func Fig6(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	ks := o.kinds(Mechanism.Headline)
	t := stats.NewTable("Figure 6: % of write-backs in the critical path",
		append([]string{"workload"}, kindNames(ks)...)...)
	err := o.workloadGrid(t, labels(Structures), len(ks), func(r, c int) cell {
		return o.cellOf(ks[c], Structures[r], false)
	}, func(rs []*Result) []string {
		cols := make([]string, 0, len(rs))
		for _, r := range rs {
			cols = append(cols, stats.Pct(r.CriticalWritebackPct()))
		}
		return cols
	})
	t.AddNote("lower is better; threads=%d ops/thread=%d", o.Threads, o.Ops)
	return t, err
}

// Fig8 regenerates Figure 8: persistency overhead over volatile
// execution as the worker count varies (the paper plots 1–32 threads for
// each workload; rows here are workload × thread-count).
func Fig8(o ExperimentOpts, threadCounts ...int) (*Table, error) {
	o = o.withDefaults()
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 8, 16, 32}
	}
	ks := o.overheadKinds()
	var rows [][]string
	for _, structure := range Structures {
		for _, n := range threadCounts {
			rows = append(rows, []string{structure, fmt.Sprintf("%d", n)})
		}
	}
	t := stats.NewTable("Figure 8: persistency overhead vs thread count",
		append([]string{"workload", "threads"}, kindNames(ks[1:])...)...)
	err := o.workloadGrid(t, rows, len(ks), func(r, c int) cell {
		oo := o
		oo.Threads = threadCounts[r%len(threadCounts)]
		oo.Cores = max(oo.Cores, oo.Threads)
		cl := oo.cellOf(ks[c], rows[r][0], false)
		cl.label = fmt.Sprintf("%s/%s t=%s", rows[r][0], ks[c], rows[r][1])
		return cl
	}, overheads)
	t.AddNote("%% execution-time overhead over NOP; lower is better")
	return t, err
}

// SizeSensitivity reproduces the §6.4 data-structure-size study: the
// paper varied 8K–1M elements and observed no significant change in the
// overheads. Rows are structure × size-scale.
func SizeSensitivity(o ExperimentOpts, scales ...float64) (*Table, error) {
	o = o.withDefaults()
	if len(scales) == 0 {
		scales = []float64{0.25, 1, 4}
	}
	ks := o.overheadKinds()
	var rows [][]string
	for _, structure := range []string{"hashmap", "bstree", "skiplist"} {
		for _, sc := range scales {
			oo := o
			oo.SizeScale = sc
			rows = append(rows, []string{structure, fmt.Sprintf("%d", oo.size(structure))})
		}
	}
	t := stats.NewTable("Size sensitivity: persistency overhead vs structure size",
		append([]string{"workload", "size"}, kindNames(ks[1:])...)...)
	err := o.workloadGrid(t, rows, len(ks), func(r, c int) cell {
		oo := o
		oo.SizeScale = scales[r%len(scales)]
		cl := oo.cellOf(ks[c], rows[r][0], false)
		cl.label = fmt.Sprintf("%s/%s n=%s", rows[r][0], ks[c], rows[r][1])
		return cl
	}, overheads)
	t.AddNote("the paper reports no significant size dependence (§6.4)")
	return t, err
}

// AblationRET sweeps the RET drain watermark, the design knob DESIGN.md
// calls out: a low watermark keeps few unpersisted releases resident, so
// the acquires that do hit one (I2) wait behind short epoch chains.
func AblationRET(o ExperimentOpts, watermarks ...int) (*Table, error) {
	o = o.withDefaults()
	if len(watermarks) == 0 {
		watermarks = []int{2, 8, 16, 28}
	}
	structures := []string{"hashmap", "queue"}
	// Each structure's cell group is one NOP baseline followed by one LRP
	// cell per watermark.
	stride := 1 + len(watermarks)
	var cells []cell
	for _, structure := range structures {
		cells = append(cells, o.cellOf(NOP, structure, false))
		for _, w := range watermarks {
			c := o.cellOf(LRP, structure, false)
			c.cfg.RETWatermark = w
			c.label = fmt.Sprintf("%s/LRP wm=%d", structure, w)
			cells = append(cells, c)
		}
	}
	rs, err := exp.Map(o.Parallel, len(cells), func(i int) (*Result, error) { return cells[i].run() })
	t := stats.NewTable("Ablation: RET drain watermark (LRP)",
		"workload", "watermark", "time vs NOP", "I2 blocks", "critical %")
	for si, structure := range structures {
		base := rs[si*stride]
		if base == nil {
			continue
		}
		for wi, w := range watermarks {
			res := rs[si*stride+1+wi]
			if res == nil {
				continue
			}
			t.AddRow(structure, fmt.Sprintf("%d", w),
				stats.Ratio(float64(res.ExecTime)/float64(base.ExecTime)),
				stats.Count(res.Sys.I2Stalls),
				stats.Pct(res.CriticalWritebackPct()))
		}
	}
	t.AddNote("RET capacity fixed at %d entries (paper §5.2.1)", DefaultConfig().RETSize)
	return t, err
}

// AblationReadMix sweeps the lookup percentage, reproducing the paper's
// observation that read-intensive workloads narrow the LRP-vs-BB gap
// (§6.4, individual workload analysis).
func AblationReadMix(o ExperimentOpts, readPcts ...int) (*Table, error) {
	o = o.withDefaults()
	if len(readPcts) == 0 {
		readPcts = []int{0, 50, 90}
	}
	ks := o.rpKinds()
	var rows [][]string
	for _, rp := range readPcts {
		rows = append(rows, []string{fmt.Sprintf("%d%%", rp)})
	}
	t := stats.NewTable("Ablation: read-intensity (hashmap)",
		append([]string{"reads"}, kindNames(ks[1:])...)...)
	err := o.workloadGrid(t, rows, len(ks), func(r, c int) cell {
		cl := o.cellOf(ks[c], "hashmap", false)
		cl.spec.ReadPct = readPcts[r]
		cl.label = fmt.Sprintf("hashmap/%s reads=%d%%", ks[c], readPcts[r])
		return cl
	}, ratios)
	return t, err
}

// Table1 renders the simulated machine configuration (the paper's
// Table 1).
func Table1() *Table {
	c := DefaultConfig()
	t := stats.NewTable("Table 1: simulator configuration", "component", "value")
	t.AddRow("Processor", fmt.Sprintf("%d-core (timing model), 2.5 GHz", c.Cores))
	t.AddRow("L1 I+D cache (pvt.)", fmt.Sprintf("%dKB, %v, %d-way, %dB lines",
		c.L1Size>>10, c.L1Lat, c.L1Ways, 64))
	t.AddRow("L2 (NUCA, shared)", fmt.Sprintf("%dMB x%d tiles, %d-way, %v",
		(c.LLCSize/c.LLCBanks)>>20, c.LLCBanks, c.LLCWays, c.LLCLat))
	t.AddRow("On-chip network", fmt.Sprintf("%dx%d mesh, %v/hop", c.MeshDim, c.MeshDim, c.HopLat))
	t.AddRow("Coherence", "directory-based MESI")
	t.AddRow("NVM (PCM)", fmt.Sprintf("cached mode: %v, uncached mode: %v",
		c.NVM.CachedLat, c.NVM.UncachedLat))
	t.AddRow("NVM controllers", fmt.Sprintf("%d", c.NVM.Controllers))
	t.AddRow("RET (private)", fmt.Sprintf("%d entries, watermark %d", c.RETSize, c.RETWatermark))
	return t
}

// ExperimentAll renders every experiment table in sequence — Table 1,
// Figures 5-8, the size-sensitivity and ablation studies, and the
// trace-replay comparison — exactly as `lrpsim -experiment all` prints
// them. The concatenated output is what the golden guard in
// testdata/golden/ pins byte-for-byte.
func ExperimentAll(o ExperimentOpts) (string, error) {
	var b strings.Builder
	b.WriteString(Table1().Format())
	b.WriteByte('\n')
	for _, g := range []func(ExperimentOpts) (*Table, error){
		Fig5, Fig6, Fig7,
		func(o ExperimentOpts) (*Table, error) { return Fig8(o) },
		func(o ExperimentOpts) (*Table, error) { return SizeSensitivity(o) },
		func(o ExperimentOpts) (*Table, error) { return AblationRET(o) },
		func(o ExperimentOpts) (*Table, error) { return AblationReadMix(o) },
		ReplayComparison,
	} {
		t, err := g(o)
		if t != nil && len(t.Rows) > 0 {
			b.WriteString(t.Format())
			b.WriteByte('\n')
		}
		if err != nil {
			return b.String(), err
		}
	}
	return b.String(), nil
}
