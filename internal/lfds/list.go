package lfds

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// List node layout (words): 0 = key, 1 = val, 2 = next (low bit = mark).
const (
	nodeKey  = 0
	nodeVal  = 8
	nodeNext = 16
	nodeSize = 3
)

// sortedList is Harris's lock-free sorted linked list over one head cell:
// a single simulated memory word holding the pointer to the first node.
// The linked list *and* each hash-map bucket are instances of it. walks
// is the owning structure's per-thread searchWalk storage, indexed by
// thread id.
type sortedList struct {
	head  isa.Addr
	walks []searchWalk
}

// search locates the insertion point for key: predCell is the address of
// the pointer word to update (the head cell or a node's next field), and
// curr is the first unmarked node with node.key >= key (0 at the end).
// Marked nodes found on the way are unlinked (Harris's helping), each
// unlink being a release CAS.
func (l *sortedList) search(c *memsys.Ctx, key uint64) (predCell isa.Addr, curr uint64) {
	w := &l.walks[c.ThreadID()]
	*w = searchWalk{head: l.head, key: key}
	traverse(c, w)
	return w.predCell, w.curr
}

// searchWalk is search's traversal as a memsys.Walker. It holds the head
// cell's address, never the sortedList: a hash-map bucket's sortedList is
// a value on its caller's stack.
type searchWalk struct {
	head isa.Addr
	key  uint64
	step uint8
	// predCell and curr are the cursor and, once the walk ends, its
	// result; next is the link word last read from curr.
	predCell   isa.Addr
	curr, next uint64
}

// searchWalk steps: the op the walker issued last.
const (
	searchStart  = iota
	searchHead   // acquire load of the head cell
	searchLink   // acquire load of curr's next field
	searchUnlink // release CAS unlinking marked curr from predCell
	searchKey    // load of curr's key
)

// Next implements memsys.Walker.
func (w *searchWalk) Next(v uint64, ok bool) (isa.Op, bool) {
	switch w.step {
	case searchHead:
		w.curr = v
		return w.visit()
	case searchLink:
		w.next = v
		if isMarked(v) {
			// curr is logically deleted: help unlink it.
			w.step = searchUnlink
			return isa.CASOp(w.predCell, w.curr, clearPtr(v), isa.Release), true
		}
		w.step = searchKey
		return isa.LoadOp(addr(w.curr) + nodeKey), true
	case searchUnlink:
		if !ok {
			return w.restart()
		}
		w.curr = clearPtr(w.next)
		return w.visit()
	case searchKey:
		if v >= w.key {
			return isa.Op{}, false
		}
		w.predCell = addr(w.curr) + nodeNext
		w.curr = w.next
		return w.visit()
	}
	return w.restart() // searchStart
}

// restart begins the search again from the head cell.
func (w *searchWalk) restart() (isa.Op, bool) {
	w.predCell = w.head
	w.step = searchHead
	return isa.LoadAcq(w.head), true
}

// visit reads curr's link, or ends the walk at the list's end.
func (w *searchWalk) visit() (isa.Op, bool) {
	if w.curr == 0 {
		return isa.Op{}, false
	}
	w.step = searchLink
	return isa.LoadAcq(addr(w.curr) + nodeNext), true
}

// insert adds key→val; false if present.
func (l *sortedList) insert(c *memsys.Ctx, key, val uint64) bool {
	for {
		predCell, curr := l.search(c, key)
		if curr != 0 && c.Load(addr(curr)+nodeKey) == key {
			return false
		}
		// Prepare the node privately (plain stores), then publish it
		// with a single release CAS — the paper's Figure 1 pattern.
		n := c.Alloc(nodeSize)
		c.Store(n+nodeKey, key)
		c.Store(n+nodeVal, val)
		c.Store(n+nodeNext, curr)
		if _, ok := c.CAS(predCell, curr, uint64(n), isa.Release); ok {
			c.Linearize()
			return true
		}
	}
}

// delete removes key; false if absent.
func (l *sortedList) delete(c *memsys.Ctx, key uint64) bool {
	for {
		predCell, curr := l.search(c, key)
		if curr == 0 || c.Load(addr(curr)+nodeKey) != key {
			return false
		}
		next := c.LoadAcq(addr(curr) + nodeNext)
		if isMarked(next) {
			continue // someone else is deleting it; re-search helps
		}
		// Logical deletion: mark the node's next pointer (release — this
		// is the linearization point and must persist after the writes
		// that made the node).
		if _, ok := c.CAS(addr(curr)+nodeNext, next, withMark(next), isa.Release); !ok {
			continue
		}
		c.Linearize()
		// Physical deletion: best effort; a failed unlink is completed
		// by a later search.
		c.CAS(predCell, curr, clearPtr(next), isa.Release)
		return true
	}
}

// findNode returns the address of key's unmarked node, or 0 if key is
// absent. Callers that mutate the node's value word in place (the kv
// store) get a stable handle: kv nodes are never marked or unlinked, so
// the address stays valid for the structure's lifetime.
func (l *sortedList) findNode(c *memsys.Ctx, key uint64) uint64 {
	curr := c.LoadAcq(l.head)
	for curr != 0 {
		k := c.Load(addr(curr) + nodeKey)
		next := c.LoadAcq(addr(curr) + nodeNext)
		if k == key {
			if isMarked(next) {
				return 0
			}
			return curr
		}
		if k > key {
			return 0
		}
		curr = clearPtr(next)
	}
	return 0
}

// insertNode is insert returning the node: on success the freshly
// published node (inserted = true, linearized at the publish CAS), on a
// duplicate the existing node (inserted = false, no linearization
// recorded — the caller owns the op's linearization point in that
// case, typically a CAS on the existing node's value word).
func (l *sortedList) insertNode(c *memsys.Ctx, key, val uint64) (node uint64, inserted bool) {
	for {
		predCell, curr := l.search(c, key)
		if curr != 0 && c.Load(addr(curr)+nodeKey) == key {
			return curr, false
		}
		n := c.Alloc(nodeSize)
		c.Store(n+nodeKey, key)
		c.Store(n+nodeVal, val)
		c.Store(n+nodeNext, curr)
		if _, ok := c.CAS(predCell, curr, uint64(n), isa.Release); ok {
			c.Linearize()
			return uint64(n), true
		}
	}
}

// contains reports membership without writing.
func (l *sortedList) contains(c *memsys.Ctx, key uint64) bool {
	curr := c.LoadAcq(l.head)
	for curr != 0 {
		k := c.Load(addr(curr) + nodeKey)
		next := c.LoadAcq(addr(curr) + nodeNext)
		if k == key {
			return !isMarked(next)
		}
		if k > key {
			return false
		}
		curr = clearPtr(next)
	}
	return false
}

// LinkedList is the paper's "linkedlist" workload: one sorted lock-free
// list (Harris, DISC'01).
type LinkedList struct {
	list sortedList
}

// NewLinkedList anchors a list; the head cell lives in the static region.
func NewLinkedList(sys *memsys.System) *LinkedList {
	return &LinkedList{list: sortedList{head: sys.StaticAlloc(1), walks: newWalks[searchWalk](sys)}}
}

// Name implements Set.
func (l *LinkedList) Name() string { return "linkedlist" }

// Insert implements Set.
func (l *LinkedList) Insert(c *memsys.Ctx, key, val uint64) bool { return l.list.insert(c, key, val) }

// Delete implements Set.
func (l *LinkedList) Delete(c *memsys.Ctx, key uint64) bool { return l.list.delete(c, key) }

// Contains implements Set.
func (l *LinkedList) Contains(c *memsys.Ctx, key uint64) bool { return l.list.contains(c, key) }

// Head exposes the head cell address.
// api:keep — recovery tests plant corrupt images at this cell.
func (l *LinkedList) Head() isa.Addr { return l.list.head }

// Recover implements Set: the hardened null-recovery walk of the list in
// a crash image.
func (l *LinkedList) Recover(img *mm.Memory) *recovery.Report { return recovery.Walk(img, l) }

// Units implements recovery.Walker: the list is one unit.
func (l *LinkedList) Units() int { return 1 }

// WalkUnit implements recovery.Walker.
func (l *LinkedList) WalkUnit(img *mm.Memory, rep *recovery.Report, _ int) {
	recoverSorted(img, rep, l.list.head, nil, 0)
}

// recoverSorted walks the sorted chain off headCell into rep.Set. A node
// that breaks the value convention or the key order is quarantined and
// the walk goes on through its link (junk targets are caught by the
// cursor's guards). For bucket b of hash map h (nil for the list), the
// chain's live keys that hash elsewhere are returned, in chain order —
// which is key order — instead of being recovered.
func recoverSorted(img *mm.Memory, rep *recovery.Report, headCell isa.Addr, h *HashMap, b uint64) (misplaced []uint64) {
	prev := uint64(0)
	c := newChain(img, rep, headCell, nodeNext, "")
	for c.Next() {
		if why := violation(c.Key, c.Val); why != "" {
			rep.Quarantine(c.Node, why)
			continue
		}
		if c.Key <= prev {
			rep.Quarantine(c.Node, fmt.Sprintf("key order violated: %d after %d", c.Key, prev))
			continue
		}
		prev = c.Key
		rep.Set.Nodes++
		switch {
		case c.Marked():
		case h != nil && h.hash(c.Key) != b:
			misplaced = append(misplaced, c.Key)
		default:
			rep.Recovered(c.Key, c.Val)
		}
	}
	return misplaced
}
