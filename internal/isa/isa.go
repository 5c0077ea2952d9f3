// Package isa defines the memory-operation vocabulary that simulated
// programs (the log-free data structures) speak and the memory system
// (package memsys) executes: word-granular loads, stores, and
// compare-and-swaps, each optionally carrying acquire/release ordering
// annotations. Persist order comes from those annotations alone: every
// mechanism, SB's and BB's full barriers included, places its own
// barriers inside the mechanism.
//
// The paper's ISA-level model is Release Consistency with a total order on
// memory events (ARMv8/RISC-V style, §2 of the paper); the annotations
// here are exactly its release/acquire tags. Persistency semantics are
// layered on these annotations by package persist.
package isa

import "fmt"

// Addr is a byte address in the simulated physical address space.
// All data accesses are 8-byte-aligned words.
type Addr uint64

// WordSize is the access granularity in bytes.
const WordSize = 8

// LineSize is the cache-line size in bytes (Table 1: 64B lines).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// WordsPerLine is the number of words in a cache line.
const WordsPerLine = LineSize / WordSize

// Line returns the cache-line base address containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Aligned reports whether a is word-aligned.
func (a Addr) Aligned() bool { return a%WordSize == 0 }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// OpKind identifies the type of a memory operation.
type OpKind uint8

const (
	// Load reads a word.
	Load OpKind = iota
	// Store writes a word.
	Store
	// CAS is a compare-and-swap read-modify-write on a word.
	CAS
)

func (k OpKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case CAS:
		return "cas"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Ordering is the consistency annotation attached to an operation.
type Ordering uint8

const (
	// Plain carries no ordering semantics beyond same-address program
	// order.
	Plain Ordering = iota
	// Acquire gives a load (or the read half of an RMW) acquire
	// semantics: later operations may not reorder above it.
	Acquire
	// Release gives a store (or the write half of an RMW) release
	// semantics: earlier operations may not reorder below it.
	Release
	// AcqRel combines Acquire and Release (RMWs only).
	AcqRel
)

// IsAcquire reports whether the ordering includes acquire semantics.
func (o Ordering) IsAcquire() bool { return o == Acquire || o == AcqRel }

// IsRelease reports whether the ordering includes release semantics.
func (o Ordering) IsRelease() bool { return o == Release || o == AcqRel }

func (o Ordering) String() string {
	switch o {
	case Plain:
		return "plain"
	case Acquire:
		return "acq"
	case Release:
		return "rel"
	case AcqRel:
		return "acq_rel"
	default:
		return fmt.Sprintf("Ordering(%d)", uint8(o))
	}
}

// Op is one dynamic memory operation issued by a simulated thread.
type Op struct {
	Kind  OpKind
	Order Ordering
	Addr  Addr
	// Value is the store value (Store) or the swap value (CAS).
	Value uint64
	// Expected is the comparison value for CAS.
	Expected uint64
}

// Validate checks structural well-formedness of the operation: alignment,
// and that the ordering annotation is legal for the kind (loads cannot be
// releases, stores cannot be acquires — matching C++11/ARMv8 rules).
func (op Op) Validate() error {
	if !op.Addr.Aligned() {
		return fmt.Errorf("isa: unaligned %s to %s", op.Kind, op.Addr)
	}
	switch op.Kind {
	case Load:
		if op.Order.IsRelease() {
			return fmt.Errorf("isa: load cannot have release ordering")
		}
	case Store:
		if op.Order.IsAcquire() {
			return fmt.Errorf("isa: store cannot have acquire ordering")
		}
	case CAS:
		// Any ordering is legal on an RMW.
	default:
		return fmt.Errorf("isa: unknown op kind %d", uint8(op.Kind))
	}
	return nil
}

func (op Op) String() string {
	switch op.Kind {
	case Load:
		return fmt.Sprintf("load.%s %s", op.Order, op.Addr)
	case Store:
		return fmt.Sprintf("store.%s %s <- %d", op.Order, op.Addr, op.Value)
	case CAS:
		return fmt.Sprintf("cas.%s %s %d -> %d", op.Order, op.Addr, op.Expected, op.Value)
	default:
		return fmt.Sprintf("op(%d)", uint8(op.Kind))
	}
}

// LoadOp constructs a plain load.
func LoadOp(a Addr) Op { return Op{Kind: Load, Addr: a} }

// LoadAcq constructs an acquire load.
func LoadAcq(a Addr) Op { return Op{Kind: Load, Order: Acquire, Addr: a} }

// StoreOp constructs a plain store.
func StoreOp(a Addr, v uint64) Op { return Op{Kind: Store, Addr: a, Value: v} }

// StoreRel constructs a release store.
func StoreRel(a Addr, v uint64) Op {
	return Op{Kind: Store, Order: Release, Addr: a, Value: v}
}

// CASOp constructs a CAS with the given ordering.
func CASOp(a Addr, expected, value uint64, o Ordering) Op {
	return Op{Kind: CAS, Order: o, Addr: a, Expected: expected, Value: value}
}
