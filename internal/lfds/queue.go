package lfds

import (
	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// Queue node layout (words): 0 = val, 1 = next.
const (
	qVal  = 0
	qNext = 8
	qSize = 2
)

// Queue is the Michael–Scott lock-free FIFO queue (PODC'96), the paper's
// fifth workload. Head and Tail are pointer cells in static memory; the
// queue always contains a dummy node. Linking a node at the tail is the
// linearization point of enqueue and carries release semantics; advancing
// Head is the linearization point of dequeue, likewise a release.
type Queue struct {
	head isa.Addr
	tail isa.Addr
}

// NewQueue anchors an empty queue.
func NewQueue(sys *memsys.System) *Queue {
	return &Queue{head: sys.StaticAlloc(1), tail: sys.StaticAlloc(1)}
}

// Init installs the dummy node. Call once before use.
func (q *Queue) Init(c *memsys.Ctx) {
	dummy := c.Alloc(qSize)
	c.Store(dummy+qVal, 0)
	c.Store(dummy+qNext, 0)
	c.StoreRel(q.head, uint64(dummy))
	c.StoreRel(q.tail, uint64(dummy))
}

// Name identifies the workload.
func (q *Queue) Name() string { return "queue" }

// Enqueue appends val.
func (q *Queue) Enqueue(c *memsys.Ctx, val uint64) {
	n := c.Alloc(qSize)
	c.Store(n+qVal, val)
	c.Store(n+qNext, 0)
	for {
		tail := c.LoadAcq(q.tail)
		next := c.LoadAcq(addr(tail) + qNext)
		if tail != c.Load(q.tail) {
			continue
		}
		if next != 0 {
			// Tail is lagging: help advance it.
			c.CAS(q.tail, tail, next, isa.Release)
			continue
		}
		// Link the node: the linearization point.
		if _, ok := c.CAS(addr(tail)+qNext, 0, uint64(n), isa.Release); ok {
			c.Linearize()
			// Swing the tail (best effort).
			c.CAS(q.tail, tail, uint64(n), isa.Release)
			return
		}
	}
}

// Dequeue removes the oldest value; ok is false when the queue is empty.
func (q *Queue) Dequeue(c *memsys.Ctx) (val uint64, ok bool) {
	for {
		head := c.LoadAcq(q.head)
		tail := c.LoadAcq(q.tail)
		next := c.LoadAcq(addr(head) + qNext)
		if head != c.Load(q.head) {
			continue
		}
		if head == tail {
			if next == 0 {
				return 0, false
			}
			// Tail is lagging behind a completed enqueue: help.
			c.CAS(q.tail, tail, next, isa.Release)
			continue
		}
		v := c.Load(addr(next) + qVal)
		if _, swung := c.CAS(q.head, head, next, isa.Release); swung {
			c.Linearize()
			return v, true
		}
	}
}

// Anchors exposes the head and tail cells.
// api:keep — recovery tests plant corrupt images at these cells.
func (q *Queue) Anchors() (head, tail isa.Addr) { return q.head, q.tail }

// Recover is the hardened null-recovery walk of the queue in a crash
// image, from the dummy node the head points at. A corrupt node
// truncates the recovered value sequence there: a queue's order is its
// content, so nothing beyond an untrusted link can be kept.
func (q *Queue) Recover(img *mm.Memory) *recovery.Report { return recovery.Walk(img, q) }

// Units implements recovery.Walker: the queue is one unit.
func (q *Queue) Units() int { return 1 }

// WalkUnit implements recovery.Walker.
func (q *Queue) WalkUnit(img *mm.Memory, rep *recovery.Report, _ int) {
	rep.Queue = &recovery.QueueState{}
	hp := clearPtr(img.Read(q.head))
	tp := clearPtr(img.Read(q.tail))
	if hp == 0 {
		if tp != 0 {
			rep.Quarantine(q.head, "tail persisted before head")
		}
		return
	}
	ptr := hp
	sawTail := tp == 0
	for steps := 0; ; steps++ {
		if steps > WalkStepBound {
			rep.Abandon(q.head, "walk exceeded step bound (cycle?)")
			return
		}
		node := isa.Addr(ptr)
		if !node.Aligned() {
			rep.Abandon(node, "misaligned node pointer")
			return
		}
		if ptr == tp {
			sawTail = true
		}
		next := addr(img.Read(node + qNext))
		rep.Queue.Nodes++
		if next == 0 {
			break
		}
		if !next.Aligned() {
			rep.Abandon(next, "misaligned node pointer")
			return
		}
		val := img.Read(next + qVal)
		if val == 0 {
			rep.Abandon(next, "reachable node with uninitialized value")
			return
		}
		rep.Queue.Values = append(rep.Queue.Values, val)
		ptr = uint64(next)
	}
	if !sawTail {
		rep.Quarantine(q.tail, "tail points outside the reachable chain")
	}
}
