// Package mech is the pluggable persistency-mechanism layer: the
// Mechanism interface the coherence protocol calls into at each hook
// point, the SystemView facade through which mechanisms reach the
// machine, and the registry (registry.go) that numbers, names and
// constructs every mechanism. Every enforcement approach the simulator
// compares — the paper's five (NOP, SB, BB, ARP, LRP) and later
// additions (eADR, FliT-SB) — lives here as one file implementing
// Mechanism plus one Register line; nothing outside this package names a
// concrete mechanism type.
//
// DESIGN.md ("Adding a mechanism") documents the contract in full.
package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/model"
	"lrp/internal/persist"
)

// Mechanism is the persistency-enforcement policy plugged into the
// coherence protocol. Hooks receive the acting thread, the affected line
// and the current time, and return the (possibly later) time at which the
// architectural action may proceed. A returned time later than `now`
// means the action stalled on the critical path.
type Mechanism interface {
	// OnWrite runs before a write (or the write half of an RMW) updates
	// the line. The line is Modified; its metadata still reflects the
	// pre-write state.
	OnWrite(tid int, l *cache.Line, release bool, now engine.Time) engine.Time
	// OnStamped runs after the write became visible and was stamped:
	// addr/val are the written word, st the happens-before stamp (zero
	// unless tracking is on).
	OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time
	// OnAcquire runs after an acquire load (or the read half of an
	// acquire-RMW) read its value.
	OnAcquire(tid int, addr isa.Addr, now engine.Time) engine.Time
	// OnRMWAcquire implements Invariant I3 for a successful acquire-RMW.
	OnRMWAcquire(tid int, l *cache.Line, now engine.Time) engine.Time
	// OnEvict runs before a Modified line leaves tid's L1 for capacity
	// reasons (Invariant I1).
	OnEvict(tid int, l *cache.Line, now engine.Time) engine.Time
	// OnDowngrade runs before a Modified line is forwarded from
	// ownerTid's L1 to reqTid (Invariant I2). The returned time blocks
	// the *requester*.
	OnDowngrade(ownerTid, reqTid int, l *cache.Line, now engine.Time) engine.Time
	// Drain flushes all of tid's buffered persist state (clean shutdown).
	Drain(tid int, now engine.Time) engine.Time

	// LLCEvictPersists reports whether dirty LLC evictions write NVM
	// (the NOP durability path; ARP's durability is its persist buffer).
	LLCEvictPersists() bool

	// NewCrashCursor returns a fresh cursor over the mechanism's own
	// durable state, or nil when the NVM event log alone determines
	// durability (every mechanism except eADR, whose caches are inside
	// the persistence domain). A non-nil cursor OWNS the durable image:
	// crash reconstruction replays it into an empty image and ignores
	// the NVM event log entirely — mixing the two is unsound, because a
	// cache write-back captures line content before its NVM ack lands
	// and could clobber words the mechanism made durable in between.
	NewCrashCursor() CrashCursor
	// CrashInstants returns extra instants at which the mechanism's
	// durable state changes, for the crash-boundary sweep to probe; nil
	// when NVM persist completions already cover every transition.
	CrashInstants() []engine.Time
}

// CrashCursor replays a mechanism's privately-held durable state into a
// crash image. A mechanism that hands one out defines the durable image
// by itself (see Mechanism.NewCrashCursor): img starts empty and the
// cursor is its only writer.
type CrashCursor interface {
	// ApplyTo writes every durable word with instant ≤ at into img.
	// Successive calls on one cursor must use nondecreasing at values
	// (the incremental contract nvm.Cursor also follows); a fresh cursor
	// may start at any instant.
	ApplyTo(img *mm.Memory, at engine.Time)
}

// NoCrashState is embedded by mechanisms whose durable state is fully
// described by the NVM event log — all of them except eADR.
type NoCrashState struct{}

// NewCrashCursor returns nil: no mechanism-held durable state.
func (NoCrashState) NewCrashCursor() CrashCursor { return nil }

// CrashInstants returns nil: persist completions cover every transition.
func (NoCrashState) CrashInstants() []engine.Time { return nil }

// SystemView is the facade through which a mechanism reaches the
// machine: L1 lookups and dirty scans, the per-thread epoch/RET/pending-persist tables,
// persist issue, directory line-blocking, and the stats/observability
// hooks. It is everything a mechanism legitimately needs and nothing
// more — mechanisms never see *memsys.System.
type SystemView interface {
	// Cores returns the machine's core count (per-thread state sizing).
	Cores() int
	// MaxPendingPersists is the per-thread outstanding-persist bound.
	MaxPendingPersists() int
	// ARPBufferCap is the per-thread persist-buffer capacity.
	ARPBufferCap() int

	// Epochs returns tid's epoch counter.
	Epochs(tid int) *persist.EpochCounter
	// RET returns tid's Release Epoch Table.
	RET(tid int) *persist.RET
	// Pending returns tid's outstanding-persist completion set.
	Pending(tid int) *engine.CompletionSet

	// LookupL1 returns tid's L1 line for a line address, or nil.
	LookupL1(tid int, line isa.Addr) *cache.Line
	// ScanDirty returns all lines of tid's L1 holding unpersisted
	// writes. The slice is a per-core scratch buffer: valid until the
	// next ScanDirty/FlushAllDirty call for the same tid.
	ScanDirty(tid int) []*cache.Line

	// PersistL1Line issues the persist of an L1 line's current content
	// on behalf of tid and returns its ack; the directory holds the line
	// until that ack (I4, in memsys.issuePersist), as it does for every
	// persist below.
	PersistL1Line(tid int, l *cache.Line, now, earliest engine.Time, critical bool) engine.Time
	// PersistAddr persists the current content of an arbitrary line
	// address (ARP buffer drains), marks the stamps of the chain stamps
	// persisted and returns the chain to Stamps; nil stands for none.
	PersistAddr(tid int, addr isa.Addr, stamps *persist.StampList, now, earliest engine.Time, critical bool) engine.Time
	// FlushAllDirty persists every unpersisted line of tid's L1:
	// only-written lines first in parallel, then released lines in
	// epoch order; returns the final ack.
	FlushAllDirty(tid int, now engine.Time, critical bool) engine.Time
	// BlockLine holds directory requests to a line until t: for an ack
	// other than one the call just issued (a persist already in flight,
	// a drain horizon), which the persist calls already hold.
	BlockLine(line isa.Addr, t engine.Time)
	// Stamps is the machine's stamp arena, which holds every happens-
	// before stamp chain: the L1 lines' and any a mechanism keeps (ARP's
	// buffer entries). A mechanism that takes over a write's stamp pops
	// it from the line (cache.Line.DropLastStamp).
	Stamps() *persist.StampArena
	// FaultStall injects a configured persist-engine stall (no-op on
	// the idealized machine), returning the delayed start time.
	FaultStall(tid int, now engine.Time) engine.Time

	// Tracking reports whether happens-before tracking is on.
	Tracking() bool
	// SetPersisted marks a stamped write durable as of at.
	SetPersisted(st model.Stamp, at engine.Time)

	// NoteEngineScan counts a persist-engine run (and traces it).
	NoteEngineScan(tid, scanned, releases int, now engine.Time)
	// NoteEpochOverflow counts an epoch-id wraparound flush.
	NoteEpochOverflow(tid int, now engine.Time)
	// NoteEpochAdvance counts an epoch boundary.
	NoteEpochAdvance(tid int, epoch uint32, now engine.Time)
	// NoteRETDrain counts a RET watermark-pressure drain.
	NoteRETDrain(tid int, line isa.Addr, now engine.Time)
	// NoteI2Stall counts an Invariant-I2 block of requester tid, from→to.
	NoteI2Stall(tid int, from, to engine.Time)
}
