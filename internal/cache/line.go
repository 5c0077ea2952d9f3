// Package cache models the on-chip memory hierarchy structures of the
// simulated machine: per-core set-associative L1 caches carrying MESI
// coherence state plus the LRP/BB persistency metadata (min-epoch,
// release bit, epoch tags, pending write stamps), a banked shared LLC,
// and a full-map directory.
//
// The package is purely structural: it answers "what is cached where, and
// what gets evicted" and keeps metadata. Protocol orchestration, timing
// and persist decisions live in package memsys, which makes each layer
// independently testable.
//
// Simulated data values do not live in cache lines. Because the simulator
// serializes memory operations in global virtual-time order, visibility
// is immediate through the architectural memory image (package mm); the
// caches exist to model timing and to decide when writes persist.
package cache

import (
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/persist"
)

// State is a MESI coherence state.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: clean, possibly cached by others.
	Shared
	// Exclusive: clean, cached only here.
	Exclusive
	// Modified: dirty, cached only here.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Line is one L1 cache line's metadata. Hot fields (address, coherence
// state, epoch bits) lead the struct; the cold happens-before stamp
// handle trails it and points into the per-system stamp arena, so a
// Line carries no heap pointers and the persist engine's scan touches
// only flat memory.
type Line struct {
	// Addr is the line base address (only meaningful when State != Invalid).
	Addr isa.Addr

	lru uint64

	// FlushedUntil is the ack time of an in-flight proactive flush of
	// this line (BB's buffered barrier); zero when none is in flight. A
	// conflicting access must wait until this time before reusing the
	// line with a newer epoch.
	FlushedUntil int64

	// MinEpoch is the epoch of the earliest not-yet-persisted write in
	// the line (LRP §5.2.1), valid while the line is not clean.
	MinEpoch uint32
	// Epoch is the epoch tag used by the BB/SB buffered-barrier schemes
	// (epoch of the most recent write in the line).
	Epoch uint32

	// State is the MESI coherence state.
	State State
	// Release marks a line holding a value written by a release whose
	// persist is still outstanding (the paper's release-bit).
	Release bool
	// Pending marks a line holding writes that have not yet been handed
	// to the NVM subsystem. (The stamp list carries the same information
	// when happens-before tracking is on, but timing-only runs leave it
	// empty, so persistency decisions key off this bit.) Production code
	// must set it via L1.MarkPending, which also maintains the scan
	// bitmap; clearing goes through ClearPersistMeta.
	Pending bool

	// stamps are the happens-before stamps of writes coalesced into this
	// line that have not yet persisted, stored in the system's
	// persist.StampArena. Persisting the line hands these to the model's
	// persist log and frees them.
	stamps persist.StampList
}

// AppendStamp records a write's happens-before stamp on the line.
func (l *Line) AppendStamp(a *persist.StampArena, st model.Stamp) {
	a.Append(&l.stamps, st)
}

// StampLen returns the number of unpersisted stamps on the line.
func (l *Line) StampLen() int { return l.stamps.Len() }

// ForEachStamp calls fn on each unpersisted stamp in write order.
func (l *Line) ForEachStamp(a *persist.StampArena, fn func(model.Stamp)) {
	a.ForEach(l.stamps, fn)
}

// DropLastStamp removes the most recently appended stamp: the write's
// stamp leaves the line when a mechanism takes over its durability (eADR
// logs the write durably at store time; ARP's buffer entry holds it).
func (l *Line) DropLastStamp(a *persist.StampArena) { a.DropLast(&l.stamps) }

// NeedsPersist reports whether the line holds writes not yet persisted.
func (l *Line) NeedsPersist() bool { return l.Pending }

// Released reports the paper's "released" classification: the line holds
// a not-yet-persisted release.
func (l *Line) Released() bool { return l.NeedsPersist() && l.Release }

// ClearPersistMeta resets the persistency metadata after the line's
// content has been persisted, returning its stamp chain to the arena.
// Coherence state is untouched: a persisted line can remain Modified
// (the LLC copy is still stale).
func (l *Line) ClearPersistMeta(a *persist.StampArena) {
	a.Free(&l.stamps)
	l.Pending = false
	l.Release = false
	l.MinEpoch = 0
	l.Epoch = 0
}

// TakeStamps detaches and returns the line's pending stamp list (for
// handing to the NVM persist log or migrating to the LLC under NOP).
// The caller owns the returned chain and must Free or Concat it.
func (l *Line) TakeStamps() persist.StampList {
	s := l.stamps
	l.stamps = persist.StampList{}
	return s
}
