package persist

import (
	"slices"

	"lrp/internal/isa"
)

// cmpAddr is a three-way address compare for the schedule sorts.
func cmpAddr(a, b isa.Addr) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// LineRef describes one L1 line discovered by the persist engine's scan:
// its address, the epoch of its earliest unpersisted write, and whether
// it holds an unpersisted release.
type LineRef struct {
	Addr     isa.Addr
	MinEpoch uint32
	Released bool
	// Slot is an opaque caller-owned index (e.g. into a parallel slice
	// of *cache.Line produced by the same scan). BuildScheduleInto carries
	// it through untouched, letting callers map a scheduled ref back to
	// its line without a per-run lookup table.
	Slot int32
}

// Schedule is the persist engine's output for one triggered persist of a
// released line (§5.2.2): the only-written lines, which may persist
// immediately and concurrently, followed by the released lines, which
// must persist after every scheduled write completes and in ascending
// epoch order among themselves.
type Schedule struct {
	// Writes are the only-written lines, persisted first, in parallel.
	Writes []LineRef
	// Releases are the released lines in the order they must persist,
	// one after the previous completes (epoch order). The triggering
	// line itself is last.
	Releases []LineRef
}

// BuildScheduleInto implements the persist-engine algorithm. trigger is
// the released line being persisted (with its release epoch from the
// RET); scanned is every valid L1 line holding unpersisted writes,
// typically produced by an L1 scan. Lines with MinEpoch >= the trigger's
// epoch are outside the release's one-sided barrier and are left alone —
// that freedom from conflicts is exactly RP's performance edge (§4.2).
//
// The schedule always ends with the trigger itself. It truncates and
// refills s.Writes/s.Releases in place, so a persist engine that keeps
// one Schedule per core allocates nothing in steady state.
func BuildScheduleInto(s *Schedule, trigger LineRef, scanned []LineRef) {
	s.Writes = s.Writes[:0]
	s.Releases = s.Releases[:0]
	for _, l := range scanned {
		if l.Addr == trigger.Addr {
			continue // the trigger is appended explicitly below
		}
		if l.MinEpoch >= trigger.MinEpoch {
			continue // newer or same epoch: not ordered before the release
		}
		if l.Released {
			s.Releases = append(s.Releases, l)
		} else {
			s.Writes = append(s.Writes, l)
		}
	}
	// Released lines persist in ascending epoch order; ties (impossible
	// for distinct releases of one thread, but be deterministic anyway)
	// break by address. slices.SortFunc rather than sort.Slice: the
	// latter's reflection-based swapper allocates on every call, and
	// this runs once per persist-engine trigger.
	slices.SortFunc(s.Releases, func(a, b LineRef) int {
		if a.MinEpoch != b.MinEpoch {
			return int(a.MinEpoch) - int(b.MinEpoch)
		}
		return cmpAddr(a.Addr, b.Addr)
	})
	// Keep the write order deterministic for reproducible timing.
	slices.SortFunc(s.Writes, func(a, b LineRef) int { return cmpAddr(a.Addr, b.Addr) })
	s.Releases = append(s.Releases, trigger)
}
