package lfds

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// WalkStepBound bounds every recovery walk, so a corrupted image with a
// pointer cycle ends in a quarantine instead of looping. It is a
// variable only so tests can reach the bound without walking millions of
// steps.
var WalkStepBound = 1 << 22

// Chain is a guarded cursor over one linked chain of a crash image: a
// list, a hash-map bucket or one level of a skip list. It owns what
// every chain walk shares — the step bound, the null end, truncation at
// a misaligned pointer (each quarantined into the report and counted
// abandoned) and decoding the node it stands on — and leaves the
// per-node policy to its caller:
//
//	c := h.Bucket(img, rep, b)
//	for c.Next() {
//		... c.Node, c.Key, c.Val, c.Marked() ...
//	}
//
// A Chain is a plain value: walking one allocates nothing. Declare it
// outside the loop statement: a variable declared in the for clause is
// copied for every iteration.
type Chain struct {
	img   *mm.Memory
	rep   *recovery.Report
	head  isa.Addr // the cell holding the first link; blamed when the step bound trips
	noun  string   // names the chain in guard findings: "" or, say, "ordered-index "
	link  isa.Addr // offset of the followed link word within a node
	steps int      // nodes visited so far

	// The node the cursor stands on, decoded.
	Node isa.Addr
	Key  uint64
	Val  uint64
	Link uint64 // the followed link word, mark bit included
}

// newChain is a cursor over the chain whose first link is in headCell;
// link is the offset of each node's link word. The first Next reads the
// head cell, which keeps the constructors small enough to inline.
func newChain(img *mm.Memory, rep *recovery.Report, headCell, link isa.Addr, noun string) Chain {
	return Chain{img: img, rep: rep, head: headCell, noun: noun, link: link}
}

// Next advances to the next node and decodes it. It returns false at the
// chain's end, and — after quarantining the cause and counting the walk
// abandoned — at a misaligned link or once the step bound is exceeded.
func (c *Chain) Next() bool {
	ptr := c.Link
	if c.steps == 0 {
		ptr = c.img.Read(c.head)
	}
	node := addr(ptr)
	if c.steps > WalkStepBound || node == 0 || !node.Aligned() {
		return c.stop(node)
	}
	c.steps++
	c.Node = node // list and tower nodes share the [key, val] prefix
	c.Key = c.img.Read(node + nodeKey)
	c.Val = c.img.Read(node + nodeVal)
	c.Link = c.img.Read(node + c.link)
	return true
}

// stop ends the walk at node, quarantining the guard that tripped, if
// any: the step bound (checked first, so it trips even at the chain's
// end) or a misaligned link.
func (c *Chain) stop(node isa.Addr) bool {
	switch {
	case c.steps > WalkStepBound:
		c.rep.Abandon(c.head, c.noun+"walk exceeded step bound (cycle?)")
	case node != 0:
		c.rep.Abandon(node, "misaligned "+c.noun+"node pointer")
	}
	return false
}

// Marked reports whether the current node is logically deleted (its
// followed link carries the mark bit).
func (c *Chain) Marked() bool { return isMarked(c.Link) }

// Height decodes the current node's tower height (skip-list chains).
func (c *Chain) Height() uint64 { return c.img.Read(c.Node + slHeight) }

// violation says why a reachable node's key and value break the
// recovery.DefaultVal convention, or returns "" if they keep it.
func violation(key, val uint64) string {
	if key == 0 {
		return "reachable node with uninitialized key"
	}
	if want := recovery.DefaultVal(key); val != want {
		return fmt.Sprintf("value %d fails integrity convention for key %d (want %d)", val, key, want)
	}
	return ""
}
