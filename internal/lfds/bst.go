package lfds

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// BST node layout (words): 0 = key, 1 = val, 2 = left, 3 = right.
// A node is a leaf iff both child words are zero. Child pointer words
// carry the flag (bit 0) and tag (bit 1) edge bits.
const (
	bstKey   = 0
	bstVal   = 8
	bstLeft  = 16
	bstRight = 24
	bstSize  = 4
)

// BSTSentinel is the sentinel leaf key; real keys must be smaller.
const BSTSentinel = uint64(1) << 62

// BST is a lock-free external (leaf-oriented) binary search tree in the
// style of Natarajan & Mittal (PPoPP'14): values live only in leaves;
// internal nodes route with key = max(subtree-left). Insertion replaces a
// leaf edge with a freshly built internal node via a single release CAS.
// Deletion is two-phase: *injection* flags the edge to the victim leaf,
// then *cleanup* tags the sibling edge and swings the grandparent edge to
// the sibling subtree, removing leaf and parent together. Conflicting
// deletions of two sibling leaves are resolved by address priority: the
// lower-addressed victim wins and the loser rolls its flag back and
// retries, so an edge is never resurrected.
//
// The linearization points relevant to persistency are all single CASes
// with release semantics: the insert link, and the cleanup swing.
type BST struct {
	// root is the root pointer cell in static memory. The tree is never
	// empty: it always holds at least the sentinel leaf.
	root isa.Addr
}

// NewBST builds the initial tree: a single sentinel leaf. The sentinel
// guarantees every real leaf has a parent edge to operate on.
func NewBST(sys *memsys.System) *BST {
	b := &BST{root: sys.StaticAlloc(1)}
	return b
}

// Init writes the sentinel leaf through a thread context. Call once
// before using the tree.
func (b *BST) Init(c *memsys.Ctx) {
	leaf := c.Alloc(bstSize)
	c.Store(leaf+bstKey, BSTSentinel)
	c.Store(leaf+bstVal, 0)
	c.StoreRel(b.root, uint64(leaf))
}

// Name implements Set.
func (b *BST) Name() string { return "bstree" }

// seekRec is the path context a BST operation needs.
type seekRec struct {
	gpCell  isa.Addr // grandparent's child cell pointing to parent (0 if none)
	parent  uint64   // parent internal node (0 if leaf hangs off root)
	pCell   isa.Addr // parent's child cell pointing to leaf (or root cell)
	leaf    uint64   // the reached leaf (clean pointer)
	sibCell isa.Addr // parent's other child cell (0 if no parent)
}

func isLeaf(c *memsys.Ctx, n uint64) bool {
	return c.LoadAcq(addr(n)+bstLeft) == 0 && c.Load(addr(n)+bstRight) == 0
}

// seek descends to the leaf where key belongs.
func (b *BST) seek(c *memsys.Ctx, key uint64) seekRec {
	rec := seekRec{pCell: b.root}
	curr := clearPtr(c.LoadAcq(b.root))
	for {
		left := c.LoadAcq(addr(curr) + bstLeft)
		if clearPtr(left) == 0 {
			rec.leaf = curr
			return rec
		}
		right := c.LoadAcq(addr(curr) + bstRight)
		rec.gpCell = rec.pCell
		rec.parent = curr
		if key < c.Load(addr(curr)+bstKey) {
			rec.pCell = addr(curr) + bstLeft
			rec.sibCell = addr(curr) + bstRight
			curr = clearPtr(left)
		} else {
			rec.pCell = addr(curr) + bstRight
			rec.sibCell = addr(curr) + bstLeft
			curr = clearPtr(right)
		}
	}
}

// Insert implements Set.
func (b *BST) Insert(c *memsys.Ctx, key, val uint64) bool {
	for {
		rec := b.seek(c, key)
		leafKey := c.Load(addr(rec.leaf) + bstKey)
		if leafKey == key {
			return false
		}
		cur := c.LoadAcq(rec.pCell)
		if clearPtr(cur) != rec.leaf || cur != clearPtr(cur) {
			continue // edge changed or is flagged/tagged: re-seek
		}
		// Build the replacement subtree privately.
		newLeaf := c.Alloc(bstSize)
		c.Store(newLeaf+bstKey, key)
		c.Store(newLeaf+bstVal, val)
		internal := c.Alloc(bstSize)
		if key < leafKey {
			c.Store(internal+bstKey, leafKey)
			c.Store(internal+bstLeft, uint64(newLeaf))
			c.Store(internal+bstRight, rec.leaf)
		} else {
			c.Store(internal+bstKey, key)
			c.Store(internal+bstLeft, rec.leaf)
			c.Store(internal+bstRight, uint64(newLeaf))
		}
		// Publish with one release CAS: the paper's insert pattern.
		if _, ok := c.CAS(rec.pCell, rec.leaf, uint64(internal), isa.Release); ok {
			c.Linearize()
			return true
		}
	}
}

// Delete implements Set.
func (b *BST) Delete(c *memsys.Ctx, key uint64) bool {
inject:
	for {
		rec := b.seek(c, key)
		if c.Load(addr(rec.leaf)+bstKey) != key {
			return false
		}
		if rec.parent == 0 {
			// Only the sentinel leaf hangs directly off the root, and
			// the sentinel never matches a real key.
			return false
		}
		// Injection: flag the edge to the victim leaf.
		if _, ok := c.CAS(rec.pCell, rec.leaf, rec.leaf|flagBit, isa.Release); !ok {
			continue
		}
		// Cleanup: tag the sibling edge, then swing the grandparent.
		for {
			sib := c.LoadAcq(rec.sibCell)
			if sib&flagBit != 0 {
				// The sibling leaf is being deleted too. Lower address
				// wins; the loser rolls back and retries from scratch.
				if clearPtr(sib) < rec.leaf {
					c.CAS(rec.pCell, rec.leaf|flagBit, rec.leaf, isa.Release)
					continue inject
				}
				continue // we win: wait for the loser's rollback
			}
			if sib&tagBit != 0 {
				// A stale tag of ours from a failed swing would have
				// been rolled back; a foreign tag here is impossible
				// (only the deleter of this parent's other child tags
				// this cell, and that is us).
				continue
			}
			if _, ok := c.CAS(rec.sibCell, sib, sib|tagBit, isa.Release); !ok {
				continue
			}
			// Swing: replace the parent with the sibling subtree.
			if _, ok := c.CAS(rec.gpCell, rec.parent, clearPtr(sib), isa.Release); ok {
				c.Linearize()
				return true
			}
			// The grandparent edge changed (e.g., the parent moved up
			// when its own parent was deleted). Undo the tag and
			// re-locate our still-flagged victim.
			c.CAS(rec.sibCell, sib|tagBit, sib, isa.Release)
			nrec := b.seek(c, key)
			if c.Load(addr(nrec.leaf)+bstKey) != key {
				// Unreachable: nobody else completes our injected
				// deletion in this scheme, but be safe.
				return true
			}
			rec = nrec
			cur := c.LoadAcq(rec.pCell)
			if clearPtr(cur) != nrec.leaf || cur&flagBit == 0 {
				// Our flag is no longer there (rolled back by priority
				// elsewhere?); restart cleanly.
				continue inject
			}
		}
	}
}

// Contains implements Set.
func (b *BST) Contains(c *memsys.Ctx, key uint64) bool {
	rec := b.seek(c, key)
	return c.Load(addr(rec.leaf)+bstKey) == key
}

// Root exposes the root cell.
func (b *BST) Root() isa.Addr { return b.root }

// Recover implements Set: the hardened null-recovery walk of the tree in
// a crash image. A corrupt node prunes its subtree into the quarantine
// set; the rest of the tree recovers.
func (b *BST) Recover(img *mm.Memory) *recovery.Report {
	rep := recovery.NewSetReport(b.Name())
	rootPtr := clearPtr(img.Read(b.root))
	if rootPtr == 0 {
		return rep
	}
	steps := 0
	var walk func(node isa.Addr, lo, hi uint64)
	walk = func(node isa.Addr, lo, hi uint64) {
		steps++
		if steps > WalkStepBound {
			rep.Abandon(node, "walk exceeded step bound (cycle?)")
			return
		}
		if !node.Aligned() {
			rep.Abandon(node, "misaligned node pointer")
			return
		}
		key := img.Read(node + bstKey)
		left := clearPtr(img.Read(node + bstLeft))
		right := clearPtr(img.Read(node + bstRight))
		if key == 0 {
			rep.Abandon(node, "reachable node with uninitialized key")
			return
		}
		if key < lo || key > hi {
			rep.Abandon(node, fmt.Sprintf("key %d escapes route bounds [%d,%d]", key, lo, hi))
			return
		}
		if left == 0 && right == 0 {
			rep.Set.Nodes++
			if key == BSTSentinel {
				return
			}
			val := img.Read(node + bstVal)
			if why := violation(key, val); why != "" {
				rep.Quarantine(node, why)
				return
			}
			rep.Set.Members[key] = val
			return
		}
		if left == 0 || right == 0 {
			rep.Abandon(node, "internal node with a missing child")
			return
		}
		rep.Set.Nodes++
		walk(isa.Addr(left), lo, key-1)
		walk(isa.Addr(right), key, hi)
	}
	walk(isa.Addr(rootPtr), 1, BSTSentinel)
	return rep
}
