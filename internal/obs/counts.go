package obs

import "sync/atomic"

// Counts is a machine's event-counter block: the one place a simulated
// machine event is counted. The machine (memsys) owns one and keeps it
// always on; the simulated thread holding the grant writes it without
// atomics. memsys.Stats, nvm.Stats and fault.Stats are sums over its
// rows, and the registry's machine-count families are read-through
// views of them (Registry.View), so the two can never disagree.
type Counts struct {
	// Core has one row per core plus a last, machine-wide row for work
	// done on behalf of no core (tid −1: NOP's LLC-eviction and drain
	// persists). Per-core registry families show the cores' rows only.
	Core []CoreCounts
	// Bank has one row per LLC bank, Ctrl one per NVM controller.
	Bank []BankCounts
	Ctrl []CtrlCounts
	// DirInvalidations counts sharer-invalidation messages.
	DirInvalidations uint64
	// Tears counts torn-line applications during crash-image
	// reconstruction. Concurrent sweep workers' cursors add to it, so
	// it is the one atomic word.
	Tears atomic.Uint64
}

// CoreCounts is one core's row of a Counts block.
type CoreCounts struct {
	// Ops counts memory operations executed.
	Ops uint64
	// Persists counts line persists issued on the core's behalf;
	// CriticalPersists those issued while some core's clock was blocked
	// on them (Figure 6's critical-path write-backs).
	Persists, CriticalPersists uint64
	// StallCycles splits the cycles the core spent blocked on
	// persistency by cause.
	StallCycles [NumStallCauses]uint64
	// Downgrades counts the core's Modified lines forwarded to another
	// L1, by the cause that set their cost.
	Downgrades [NumDowngradeCauses]uint64
	// I2Stalls counts the core's requests that waited on a released (or
	// still-persisting) line (Invariant I2); I2Cycles their wait.
	I2Stalls, I2Cycles uint64
	// EngineScans counts persist-engine runs; EngineReleases the
	// released lines they persisted.
	EngineScans, EngineReleases uint64
	// RETWatermarkFlushes counts persists triggered by RET occupancy.
	RETWatermarkFlushes uint64
	// EpochAdvances counts epoch boundaries (releases); EpochOverflows
	// epoch-counter wraparound flushes.
	EpochAdvances, EpochOverflows uint64
	// L1Evictions counts capacity evictions from the core's L1;
	// L1DirtyEvictions those of Modified lines.
	L1Evictions, L1DirtyEvictions uint64
	// EngineStalls counts injected persist-engine stalls;
	// EngineStallCycles their total length.
	EngineStalls, EngineStallCycles uint64
}

// BankCounts is one LLC bank's row of a Counts block.
type BankCounts struct {
	LLCHits, LLCMisses uint64
}

// CtrlCounts is one NVM controller's row of a Counts block.
type CtrlCounts struct {
	// Persists counts line persists served; Reads line fills.
	Persists, Reads uint64
	// Retries counts injected-fault retries absorbed, BackoffCycles
	// their total backoff, Giveups accesses that exhausted the budget.
	Retries, BackoffCycles, Giveups uint64
	// WriteFaults and ReadFaults count the rejections the fault plane
	// injected (at most one more than the retries they cost).
	WriteFaults, ReadFaults uint64
}

// NewCounts builds a zeroed block for the given topology.
func NewCounts(cores, banks, ctrls int) *Counts {
	return &Counts{
		Core: make([]CoreCounts, cores+1),
		Bank: make([]BankCounts, banks),
		Ctrl: make([]CtrlCounts, ctrls),
	}
}

// Row returns tid's row; tid −1 selects the machine-wide row.
func (c *Counts) Row(tid int) *CoreCounts {
	if tid < 0 {
		return &c.Core[len(c.Core)-1]
	}
	return &c.Core[tid]
}
