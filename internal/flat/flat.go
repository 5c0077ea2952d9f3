// Package flat provides the open-addressing hash table the memory
// system's hot paths are built on: a Table[V] keyed by uint64 that
// stores values inline (no per-entry heap pointer), probes linearly in
// three parallel arrays, and amortizes all allocation into rare
// power-of-two growths. It replaces the map[isa.Addr]*T pattern whose
// per-entry allocations and pointer chasing dominated the perform-path
// profile, and whose randomized iteration order had to be pinned with a
// sort anywhere it fed output.
//
// Determinism: the table's layout is a pure function of the insert and
// delete sequence, so a deterministic simulation produces a
// deterministic table — but probe order is NOT insertion order, so any
// iteration that feeds output or a crash image must go through Keys
// (sorted) rather than Range.
package flat

import (
	"math/bits"
	"slices"
)

// Slot states. A tombstone (slotDead) keeps probe chains intact after a
// delete; growth rehashes drop tombstones.
const (
	slotEmpty uint8 = iota
	slotFull
	slotDead
)

// minCap is the smallest non-zero capacity (power of two).
const minCap = 16

// Table is an open-addressing hash table from uint64 keys to inline V
// values. The zero value is an empty, usable table. Any key is valid,
// including 0 (line address 0 is a real address in the simulator).
//
// Pointer validity: pointers returned by Ptr/Upsert remain valid until
// the next Upsert or Reset (growth moves entries). Delete never moves
// surviving entries.
type Table[V any] struct {
	keys  []uint64
	vals  []V
	state []uint8
	live  int
	dead  int
	shift uint
	mask  uint64
}

// hash spreads the key across the table. Fibonacci multiply keeps the
// top bits well mixed even for keys with dead low bits (line addresses
// carry 6 zero low bits; set indices are small dense ints).
func hash(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.live }

// Ptr returns a pointer to k's value, or nil if absent. The pointer is
// invalidated by the next Upsert or Reset.
func (t *Table[V]) Ptr(k uint64) *V {
	if t.live == 0 {
		return nil
	}
	i := hash(k) >> t.shift
	for {
		switch t.state[i] {
		case slotFull:
			if t.keys[i] == k {
				return &t.vals[i]
			}
		case slotEmpty:
			return nil
		}
		i = (i + 1) & t.mask
	}
}

// Upsert returns a pointer to k's value, inserting a zero value if
// absent; the bool reports whether the entry was created. Insertion
// invalidates previously returned pointers when it triggers growth.
func (t *Table[V]) Upsert(k uint64) (*V, bool) {
	if (t.live+t.dead+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	i := hash(k) >> t.shift
	reuse := -1
	for {
		switch t.state[i] {
		case slotFull:
			if t.keys[i] == k {
				return &t.vals[i], false
			}
		case slotDead:
			if reuse < 0 {
				reuse = int(i)
			}
		case slotEmpty:
			j := int(i)
			if reuse >= 0 {
				j = reuse
				t.dead--
			}
			t.keys[j] = k
			t.state[j] = slotFull
			t.live++
			var zero V
			t.vals[j] = zero
			return &t.vals[j], true
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes k, reporting whether it was present. The slot becomes
// a tombstone; surviving entries do not move.
func (t *Table[V]) Delete(k uint64) bool {
	if t.live == 0 {
		return false
	}
	i := hash(k) >> t.shift
	for {
		switch t.state[i] {
		case slotFull:
			if t.keys[i] == k {
				t.state[i] = slotDead
				var zero V
				t.vals[i] = zero
				t.live--
				t.dead++
				return true
			}
		case slotEmpty:
			return false
		}
		i = (i + 1) & t.mask
	}
}

// Reset empties the table, keeping its capacity (no allocation).
func (t *Table[V]) Reset() {
	if len(t.keys) == 0 {
		return
	}
	clear(t.state)
	clear(t.vals)
	t.live, t.dead = 0, 0
}

// Range calls fn for every live entry in unspecified (probe) order,
// stopping early if fn returns false. The table must not be mutated
// during the walk. Output-feeding walks must use Keys instead.
func (t *Table[V]) Range(fn func(k uint64, v *V) bool) {
	for i, st := range t.state {
		if st == slotFull && !fn(t.keys[i], &t.vals[i]) {
			return
		}
	}
}

// Keys appends every live key to buf[:0] in ascending order and returns
// it. Passing a reused buffer makes the ordered walk allocation-free in
// steady state.
func (t *Table[V]) Keys(buf []uint64) []uint64 {
	buf = buf[:0]
	for i, st := range t.state {
		if st == slotFull {
			buf = append(buf, t.keys[i])
		}
	}
	slices.Sort(buf)
	return buf
}

// grow rehashes into the smallest power-of-two capacity that holds the
// live entries under 3/4 load, dropping tombstones.
func (t *Table[V]) grow() {
	n := minCap
	for n*3 < (t.live+1)*4 {
		n <<= 1
	}
	if n <= len(t.keys) {
		n = len(t.keys) * 2 // tombstone-heavy: still double to cut rehash churn
	}
	oldKeys, oldVals, oldState := t.keys, t.vals, t.state
	t.keys = make([]uint64, n)
	t.vals = make([]V, n)
	t.state = make([]uint8, n)
	t.mask = uint64(n - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.dead = 0
	for i, st := range oldState {
		if st != slotFull {
			continue
		}
		j := hash(oldKeys[i]) >> t.shift
		for t.state[j] != slotEmpty {
			j = (j + 1) & t.mask
		}
		t.keys[j] = oldKeys[i]
		t.vals[j] = oldVals[i]
		t.state[j] = slotFull
	}
}
