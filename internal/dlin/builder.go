package dlin

import (
	"fmt"

	"lrp/internal/model"
)

// Builder assembles a History from the events that bracket each
// data-structure call: a begin (thread, kind, key, value), any number of
// linearization marks, and an end (outcome, return value). It is the one
// place Ops are made. A live machine feeds it while a run captures its
// history (its methods are memsys.OpRecorder's), and the trace reader
// feeds it the decoded op-history records, so both produce identical Ops.
//
// The first protocol error — a begin inside an open operation, a
// linearization or an end with none open — is kept and reported by Err
// and Finish; events after it are ignored. The messages carry no package
// prefix, so callers wrap them in their own.
type Builder struct {
	h    History
	open []openOp
	err  error
}

// openOp is one thread's operation between its begin and end events.
type openOp struct {
	active   bool
	kind     Kind
	key, val uint64
	lin      model.Stamp
	linSeq   uint64
}

// NewBuilder returns a Builder for a history over the named structure,
// issued by threads 0..threads-1.
func NewBuilder(structure string, threads int) *Builder {
	return &Builder{h: History{Structure: structure}, open: make([]openOp, threads)}
}

// RecordOpBegin opens an operation on thread tid. kind is a Kind; for
// OpCAS, val is the expected value the operation observed.
func (b *Builder) RecordOpBegin(tid int, kind uint8, key, val uint64) {
	if b.err != nil {
		return
	}
	o := &b.open[tid]
	if o.active {
		b.err = fmt.Errorf("thread %d begins an operation inside an open one", tid)
		return
	}
	*o = openOp{active: true, kind: Kind(kind), key: key, val: val}
}

// RecordOpLin marks lin, the write with global perform-order index
// linSeq, as the linearization point of tid's open operation. A later
// mark replaces an earlier one.
func (b *Builder) RecordOpLin(tid int, lin model.Stamp, linSeq uint64) {
	if b.err != nil {
		return
	}
	o := &b.open[tid]
	if !o.active {
		b.err = fmt.Errorf("thread %d linearizes with no open operation", tid)
		return
	}
	o.lin, o.linSeq = lin, linSeq
}

// RecordOpEnd closes tid's open operation with its outcome and return
// value, appending the finished Op to the history.
func (b *Builder) RecordOpEnd(tid int, ok bool, ret uint64) {
	if b.err != nil {
		return
	}
	o := &b.open[tid]
	if !o.active {
		b.err = fmt.Errorf("thread %d ends an operation it never began", tid)
		return
	}
	op := Op{
		Tid: tid, Kind: o.kind, Key: o.key, Val: o.val,
		OK: ok, Ret: ret, Lin: o.lin, LinSeq: o.linSeq,
	}
	if o.kind == OpCAS {
		// A CAS begins with the expected value it observed and returns
		// the new value it installed (see the kv runner).
		op.Exp, op.Val = o.val, ret
	}
	b.h.Ops = append(b.h.Ops, op)
	*o = openOp{}
}

// Err returns the first protocol error, nil if none.
func (b *Builder) Err() error { return b.err }

// Finish returns the assembled history once every operation has ended,
// or the first protocol error.
func (b *Builder) Finish() (*History, error) {
	if b.err != nil {
		return nil, b.err
	}
	for tid := range b.open {
		if b.open[tid].active {
			return nil, fmt.Errorf("thread %d has an unfinished op-history operation at end of stream", tid)
		}
	}
	return &b.h, nil
}
