// Package dlin checks durable linearizability ("The Path to Durable
// Linearizability", PAPERS.md) over the repository's crash machinery.
//
// The structural recovery walks (internal/recovery) prove a crash image
// parses back into a well-formed structure; they say nothing about
// whether the recovered *contents* correspond to a legal history. An
// acknowledged insert whose node was silently lost passes every walker —
// the structure is smaller but perfectly well formed. Durable
// linearizability is the property that closes that hole: the state
// surviving a crash must be explained by a prefix of some linearization
// of the recorded operation history, closed under happens-before.
//
// The checker consumes an operation History that a Builder assembles
// from a live run or from a trace: one Op per data-structure call,
// carrying its abstract semantics (kind, key, value, outcome) and the
// happens-before stamp of its linearization-point write. Because every
// linearization point in internal/lfds is a single release CAS, the
// linearized prefix durable at a crash instant t is exactly
// {op : DurableAt(op.Lin) <= t}, and three checks pin the property:
//
//   - closure: the durable prefix must be closed under happens-before
//     between linearization writes (a violation is a Reordered op);
//   - completeness: replaying the durable prefix in linearization order
//     must reproduce every key/value the recovery walk reads back. A
//     durable op whose effect is missing is AckedLost — the ARP gap —
//     but only when the durable *write* set is not happens-before closed
//     beneath the op: its linearization persisted while a write it was
//     ordered after (its own node-initialization stores, or anything it
//     acquired) did not. With NVTraverse-style elided-acquire traversals
//     (the skip list's plain index-level loads), nothing orders the
//     persist of the third-party link that makes a node reachable, so a
//     correct buffered mechanism can legitimately recover an HB-closed
//     *subset* rather than the full durable prefix; such a fully-durable
//     but unreachable op is buffering, not loss. A linearization that
//     outran its own causes is the persist-order bug no buffering
//     explains;
//   - soundness: the recovered state must contain nothing the durable
//     prefix does not explain (an unexplained key is a Phantom).
//
// The check is oblivious to *volatile* recovery artifacts by
// construction: it compares against the walkers' logical contents, so
// NVTraverse-style elided-flush states (unflushed skip-list index
// levels, unswung queue tails, unlinked marked nodes) are accepted —
// exactly the states a correct buffered mechanism legitimately leaves.
package dlin

import (
	"fmt"

	"lrp/internal/engine"
	"lrp/internal/model"
)

// Kind is the abstract operation type of a history entry.
type Kind uint8

const (
	// OpInsert and OpDelete are keyed-set updates; OpContains the read.
	OpInsert Kind = iota + 1
	OpDelete
	OpContains
	// OpEnqueue and OpDequeue are the MS-queue operations.
	OpEnqueue
	OpDequeue
	// OpGet, OpSet, OpCAS, and OpScan are the kv-service operations
	// (internal/kv): OpGet/OpScan read, OpSet writes unconditionally,
	// OpCAS writes Val if the current value is Exp. The kv store
	// reuses OpDelete for its tombstoning delete.
	OpGet
	OpSet
	OpCAS
	OpScan
)

func (k Kind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpContains:
		return "contains"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpCAS:
		return "cas"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Mutates reports whether a successful operation of this kind changes
// the abstract state.
func (k Kind) Mutates() bool {
	return k != OpContains && k != OpGet && k != OpScan
}

// Op is one completed data-structure operation in a recorded history.
type Op struct {
	// Tid is the issuing thread.
	Tid int
	// Kind is the abstract operation; Key and Val its arguments (Key is
	// unused for queue ops, Val holds the enqueued value).
	Kind     Kind
	Key, Val uint64
	// Exp is OpCAS's observed expected value: the value the operation
	// read before attempting its swap. Unused by every other kind.
	Exp uint64
	// OK is the operation's outcome: insert/delete success, contains
	// found, dequeue nonempty. Enqueue always succeeds.
	OK bool
	// Ret is the returned value (dequeue's popped value).
	Ret uint64
	// Lin is the happens-before stamp of the operation's linearization-
	// point write (the release CAS). It is zero for read-only ops and for
	// the rare mutating paths with no single linearizing write (a BST
	// delete whose leaf was already unreachable); such ops are excluded
	// from durability checking.
	Lin model.Stamp
	// LinSeq is the global perform-order index of the linearization
	// write: a total order over all linearization points, used to replay
	// the durable prefix in linearization order.
	LinSeq uint64
}

func (o Op) String() string {
	switch o.Kind {
	case OpEnqueue:
		return fmt.Sprintf("t%d:enqueue(%d)", o.Tid, o.Val)
	case OpDequeue:
		return fmt.Sprintf("t%d:dequeue()=%d,%v", o.Tid, o.Ret, o.OK)
	case OpCAS:
		return fmt.Sprintf("t%d:cas(%d,%d->%d)=%v", o.Tid, o.Key, o.Exp, o.Val, o.OK)
	case OpSet:
		return fmt.Sprintf("t%d:set(%d,%d)=%v", o.Tid, o.Key, o.Val, o.OK)
	default:
		return fmt.Sprintf("t%d:%s(%d)=%v", o.Tid, o.Kind, o.Key, o.OK)
	}
}

// History is a recorded operation history over one structure instance.
// Ops appear in completion order (the order OpEnd fired in the global
// scheduler order), which the checker re-sorts by LinSeq as needed.
type History struct {
	// Structure is the workload structure name ("queue" selects FIFO
	// semantics; everything else is a keyed set).
	Structure string
	Ops       []Op
}

// Queue reports whether the history carries FIFO (vs keyed-set)
// semantics.
func (h *History) Queue() bool { return h.Structure == "queue" }

// Updates counts successful mutating operations with a linearization
// stamp — the population the durability checks run over.
func (h *History) Updates() int {
	n := 0
	for _, o := range h.Ops {
		if o.OK && o.Kind.Mutates() && !o.Lin.IsZero() {
			n++
		}
	}
	return n
}

// Class partitions durable-linearizability violations.
type Class uint8

const (
	// AckedLost: the operation's linearization write is durable at the
	// crash instant, some happens-before-earlier write is not, and the
	// operation's effect is missing from the recovered state — an
	// acknowledged operation was lost to write-level persist reordering
	// that no happens-before-closed subset of the history explains (the
	// ARP §3 gap).
	AckedLost Class = iota + 1
	// Reordered: the operation's linearization write is durable but a
	// happens-before-earlier linearization is not — the durable prefix is
	// not closed under happens-before.
	Reordered
	// Phantom: the recovered state contains an effect no durable
	// operation explains (a key or value from the non-durable future, or
	// a value-integrity mismatch).
	Phantom
)

func (c Class) String() string {
	switch c {
	case AckedLost:
		return "acked-but-lost"
	case Reordered:
		return "reordered"
	case Phantom:
		return "phantom"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Violation is one durable-linearizability failure at a crash instant.
type Violation struct {
	// Class is the failure mode.
	Class Class
	// At is the crash instant checked.
	At engine.Time
	// Op indexes the violating operation in the history (-1 when no
	// single operation is implicated, e.g. a phantom key).
	Op int
	// Kind/Key/Val identify the implicated effect.
	Kind Kind
	Key  uint64
	Val  uint64
	// Detail is the human-readable specifics.
	Detail string
}

func (v Violation) String() string {
	op := ""
	if v.Op >= 0 {
		op = fmt.Sprintf(" op#%d", v.Op)
	}
	return fmt.Sprintf("%s at t=%d%s: %s", v.Class, v.At, op, v.Detail)
}
