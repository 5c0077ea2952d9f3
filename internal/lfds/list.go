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
// The linked list *and* each hash-map bucket are instances of it.
type sortedList struct {
	head isa.Addr
}

// search locates the insertion point for key: predCell is the address of
// the pointer word to update (the head cell or a node's next field), and
// curr is the first unmarked node with node.key >= key (0 at the end).
// Marked nodes found on the way are unlinked (Harris's helping), each
// unlink being a release CAS.
func (l *sortedList) search(c *memsys.Ctx, key uint64) (predCell isa.Addr, curr uint64) {
retry:
	for {
		predCell = l.head
		curr = c.LoadAcq(predCell)
		for curr != 0 {
			next := c.LoadAcq(addr(curr) + nodeNext)
			if isMarked(next) {
				// curr is logically deleted: help unlink it.
				if _, ok := c.CAS(predCell, curr, clearPtr(next), isa.Release); !ok {
					continue retry
				}
				curr = clearPtr(next)
				continue
			}
			k := c.Load(addr(curr) + nodeKey)
			if k >= key {
				return predCell, curr
			}
			predCell = addr(curr) + nodeNext
			curr = next
		}
		return predCell, 0
	}
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
	return &LinkedList{list: sortedList{head: sys.StaticAlloc(1)}}
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
func (l *LinkedList) Head() isa.Addr { return l.list.head }

// Recover implements Set: the hardened null-recovery walk of the list in
// a crash image.
func (l *LinkedList) Recover(img *mm.Memory) *recovery.Report {
	rep := recovery.NewSetReport(l.Name())
	recoverSorted(img, rep, l.list.head, nil, 0, nil)
	return rep
}

// recoverSorted walks the sorted chain off headCell into rep.Set. A node
// that breaks the value convention or the key order is quarantined and
// the walk goes on through its link (junk targets are caught by the
// cursor's guards). For bucket b of hash map h (nil for the list), the
// chain's live keys that hash elsewhere are appended to misplaced, in
// chain order — which is key order — instead of being recovered.
func recoverSorted(img *mm.Memory, rep *recovery.Report, headCell isa.Addr, h *HashMap, b uint64, misplaced []uint64) []uint64 {
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
			rep.Set.Members[c.Key] = c.Val
		}
	}
	return misplaced
}
