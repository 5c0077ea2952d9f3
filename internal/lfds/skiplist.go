package lfds

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// MaxHeight is the skip list's tallest tower.
const MaxHeight = 16

// Skip-list node layout (words): 0 = key, 1 = val, 2 = height,
// 3..3+height-1 = per-level next pointers (low bit = mark).
const (
	slKey    = 0
	slVal    = 8
	slHeight = 16
	slNext0  = 24
)

func slNext(level int) isa.Addr { return isa.Addr(slNext0 + 8*level) }

// SkipList is a lock-free skip list (Herlihy & Shavit's LockFreeSkipList,
// itself derived from Fraser): membership is decided by the bottom-level
// list; upper levels are an index maintained best-effort. Deletion marks
// a node's next pointers from the top level down; the bottom-level mark
// is the linearization point and carries release semantics.
type SkipList struct {
	// head is the head tower: MaxHeight pointer cells in static memory.
	head isa.Addr
	// finds and lookups are the per-thread findWalk and containsWalk
	// storage, indexed by thread id.
	finds   []findWalk
	lookups []containsWalk
}

// NewSkipList anchors an empty skip list.
func NewSkipList(sys *memsys.System) *SkipList {
	return &SkipList{head: sys.StaticAlloc(MaxHeight),
		finds: newWalks[findWalk](sys), lookups: newWalks[containsWalk](sys)}
}

// Name implements Set.
func (s *SkipList) Name() string { return "skiplist" }

func (s *SkipList) headCell(level int) isa.Addr { return s.head + isa.Addr(8*level) }

// find locates key on every level: preds[i] is the pointer-cell address
// to update at level i, succs[i] the (clean) successor. Marked nodes are
// unlinked on the way. found reports a bottom-level unmarked match.
func (s *SkipList) find(c *memsys.Ctx, key uint64) (preds [MaxHeight]isa.Addr, succs [MaxHeight]uint64, found bool) {
	w := &s.finds[c.ThreadID()]
	*w = findWalk{head: s.head, key: key}
	traverse(c, w)
	return w.preds, w.succs, w.found
}

// findWalk is find's descent as a memsys.Walker. A failed unlink CAS
// restarts it from the top of the head tower.
type findWalk struct {
	head isa.Addr
	key  uint64
	step uint8
	// The cursor: the level being searched, the cell that points at
	// curr, and the link word last read from curr.
	level      int
	predCell   isa.Addr
	curr, next uint64
	// The result, complete once the walk ends.
	preds [MaxHeight]isa.Addr
	succs [MaxHeight]uint64
	found bool
}

// findWalk steps: the op the walker issued last.
const (
	findStart  = iota
	findHead   // load of predCell, on entering a level
	findLink   // load of curr's link at the level
	findUnlink // CAS unlinking marked curr from predCell at the level
	findKey    // load of curr's key
	findBottom // load of the bottom-level successor's key
)

// Next implements memsys.Walker.
func (w *findWalk) Next(v uint64, ok bool) (isa.Op, bool) {
	switch w.step {
	case findHead:
		w.curr = clearPtr(v)
		return w.visit()
	case findLink:
		w.next = v
		if isMarked(v) {
			// Help unlink the deleted node at this level.
			w.step = findUnlink
			return isa.CASOp(w.predCell, w.curr, clearPtr(v), casOrder(w.level)), true
		}
		w.step = findKey
		return isa.LoadOp(addr(w.curr) + slKey), true
	case findUnlink:
		if !ok {
			break
		}
		w.curr = clearPtr(w.next)
		return w.visit()
	case findKey:
		if v >= w.key {
			return w.endLevel()
		}
		w.predCell = addr(w.curr) + slNext(w.level)
		w.curr = clearPtr(w.next)
		return w.visit()
	case findBottom:
		w.found = v == w.key
		return isa.Op{}, false
	}
	// findStart, or a failed unlink: search from the top of the tower.
	w.level = MaxHeight - 1
	w.predCell = w.head + isa.Addr(8*w.level)
	w.step = findHead
	return levelOp(w.predCell, w.level), true
}

// visit reads curr's link at the level, or ends the level at its end.
func (w *findWalk) visit() (isa.Op, bool) {
	if w.curr == 0 {
		return w.endLevel()
	}
	w.step = findLink
	return levelOp(addr(w.curr)+slNext(w.level), w.level), true
}

// endLevel records the level's (pred, succ) and drops one level within
// the same tower; below the bottom level it checks the successor's key.
func (w *findWalk) endLevel() (isa.Op, bool) {
	w.preds[w.level] = w.predCell
	w.succs[w.level] = w.curr
	if w.level == 0 {
		if w.curr == 0 {
			return isa.Op{}, false
		}
		w.step = findBottom
		return isa.LoadOp(addr(w.curr) + slKey), true
	}
	w.level--
	w.predCell -= 8 // drop one level within the same tower
	w.step = findHead
	return levelOp(w.predCell, w.level), true
}

// levelOp is the load of a next-pointer cell at level, as loadLevel
// performs it.
func levelOp(cell isa.Addr, level int) isa.Op {
	if level == 0 {
		return isa.LoadAcq(cell)
	}
	return isa.LoadOp(cell)
}

// loadLevel reads a next-pointer cell: acquire on the bottom level
// (synchronizing with the releases that define membership), plain on the
// index levels (volatile bookkeeping, rebuilt on recovery if needed).
func loadLevel(c *memsys.Ctx, cell isa.Addr, level int) uint64 {
	if level == 0 {
		return c.LoadAcq(cell)
	}
	return c.Load(cell)
}

// casOrder gives link/unlink CASes release semantics only on the bottom
// level.
func casOrder(level int) isa.Ordering {
	if level == 0 {
		return isa.Release
	}
	return isa.Plain
}

// randomHeight draws a geometric height in [1, MaxHeight].
func randomHeight(c *memsys.Ctx) int {
	h := 1
	for h < MaxHeight && c.Rand().Bool() {
		h++
	}
	return h
}

// Insert implements Set.
func (s *SkipList) Insert(c *memsys.Ctx, key, val uint64) bool {
	for {
		preds, succs, found := s.find(c, key)
		if found {
			return false
		}
		h := randomHeight(c)
		n := c.Alloc(slNext0/8 + h)
		c.Store(n+slKey, key)
		c.Store(n+slVal, val)
		c.Store(n+slHeight, uint64(h))
		for i := 0; i < h; i++ {
			c.Store(n+slNext(i), succs[i])
		}
		// Publish at the bottom level: the linearization point, and the
		// one-sided persist barrier that orders the node's fields first.
		if _, ok := c.CAS(preds[0], succs[0], uint64(n), isa.Release); !ok {
			continue
		}
		c.Linearize()
		// Link the index levels best-effort (plain CASes: the index is
		// volatile bookkeeping; membership and recovery are defined by
		// the bottom level alone, so the index carries no persist
		// ordering). linked holds what each of n's index cells points
		// at. While n is not linked at a level, only a deleter's mark
		// can change that cell, so repointing it by CAS from linked
		// never overwrites a mark: a failed CAS means n was deleted.
		linked := succs
		for i := 1; i < h; i++ {
			for {
				if isMarked(c.Load(n + slNext(i))) {
					return true // concurrently deleted; stop indexing
				}
				if _, ok := c.CAS(preds[i], succs[i], uint64(n), isa.Plain); ok {
					break
				}
				var nf bool
				preds, succs, nf = s.find(c, key)
				if !nf {
					return true // deleted while indexing
				}
				if _, ok := c.CAS(n+slNext(i), linked[i], succs[i], isa.Plain); !ok {
					return true // concurrently deleted; stop indexing
				}
				linked[i] = succs[i]
			}
		}
		return true
	}
}

// Delete implements Set.
func (s *SkipList) Delete(c *memsys.Ctx, key uint64) bool {
	for {
		_, succs, found := s.find(c, key)
		if !found {
			return false
		}
		n := succs[0]
		h := int(c.Load(addr(n) + slHeight))
		// Mark the index levels top-down (plain CASes: the index is
		// volatile bookkeeping; membership changes only at level 0).
		for i := h - 1; i >= 1; i-- {
			for {
				next := c.Load(addr(n) + slNext(i))
				if isMarked(next) {
					break
				}
				if _, ok := c.CAS(addr(n)+slNext(i), next, withMark(next), isa.Plain); ok {
					break
				}
			}
		}
		// Bottom level: the linearization point.
		for {
			next := c.LoadAcq(addr(n) + slNext(0))
			if isMarked(next) {
				return false // someone else deleted it first
			}
			if _, ok := c.CAS(addr(n)+slNext(0), next, withMark(next), isa.Release); ok {
				c.Linearize()
				s.find(c, key) // physical unlink via helping
				return true
			}
		}
	}
}

// Contains implements Set. It descends the index read-only; only the
// bottom level (acquire loads) decides membership.
func (s *SkipList) Contains(c *memsys.Ctx, key uint64) bool {
	w := &s.lookups[c.ThreadID()]
	*w = containsWalk{head: s.head, key: key}
	traverse(c, w)
	return w.found
}

// containsWalk is Contains's descent as a memsys.Walker.
type containsWalk struct {
	head isa.Addr
	key  uint64
	step uint8
	// The cursor: the level being searched, the cell that points at
	// curr, and curr's key.
	level    int
	predCell isa.Addr
	curr, k  uint64
	found    bool
}

// containsWalk steps: the op the walker issued last.
const (
	containsStart = iota
	containsHead  // load of predCell, on entering a level
	containsKey   // load of curr's key
	containsLink  // load of curr's link at the level
)

// Next implements memsys.Walker.
func (w *containsWalk) Next(v uint64, _ bool) (isa.Op, bool) {
	switch w.step {
	case containsStart:
		w.level = MaxHeight - 1
		w.predCell = w.head + isa.Addr(8*w.level)
		w.step = containsHead
		return levelOp(w.predCell, w.level), true
	case containsHead:
		w.curr = clearPtr(v)
	case containsKey:
		w.k = v
		w.step = containsLink
		return levelOp(addr(w.curr)+slNext(w.level), w.level), true
	case containsLink:
		if w.k >= w.key {
			if w.level == 0 && w.k == w.key {
				w.found = !isMarked(v)
				return isa.Op{}, false
			}
			return w.endLevel()
		}
		w.predCell = addr(w.curr) + slNext(w.level)
		w.curr = clearPtr(v)
	}
	if w.curr == 0 {
		return w.endLevel()
	}
	w.step = containsKey
	return isa.LoadOp(addr(w.curr) + slKey), true
}

// endLevel drops one level within the same tower; below the bottom
// level the key is absent.
func (w *containsWalk) endLevel() (isa.Op, bool) {
	if w.level == 0 {
		return isa.Op{}, false
	}
	w.level--
	w.predCell -= 8
	w.step = containsHead
	return levelOp(w.predCell, w.level), true
}

// Scan walks the bottom level in key order starting at the first key
// >= from, invoking visit for up to max unmarked nodes (or until visit
// returns false), and returns the number visited. Like Contains it
// descends the index read-only; only the bottom level (acquire loads)
// decides membership.
func (s *SkipList) Scan(c *memsys.Ctx, from uint64, max int, visit func(key, val uint64) bool) int {
	predCell := s.headCell(MaxHeight - 1)
	for level := MaxHeight - 1; level >= 1; level-- {
		if level != MaxHeight-1 {
			predCell -= 8 // drop one level within the same tower
		}
		for curr := clearPtr(loadLevel(c, predCell, level)); curr != 0; {
			if c.Load(addr(curr)+slKey) >= from {
				break
			}
			predCell = addr(curr) + slNext(level)
			curr = clearPtr(loadLevel(c, predCell, level))
		}
	}
	predCell -= 8 // level-0 cell of the rightmost tower left of from
	visited := 0
	curr := clearPtr(c.LoadAcq(predCell))
	for curr != 0 && visited < max {
		k := c.Load(addr(curr) + slKey)
		next := c.LoadAcq(addr(curr) + slNext(0))
		if k >= from && !isMarked(next) {
			visited++
			if !visit(k, c.Load(addr(curr)+slVal)) {
				break
			}
		}
		curr = clearPtr(next)
	}
	return visited
}

// Head exposes the head tower base.
// api:keep — recovery and kv tests plant corrupt images at this tower.
func (s *SkipList) Head() isa.Addr { return s.head }

// Bottom is a recovery cursor over the bottom level of the list in a
// crash image; noun names the chain in its guard findings ("" for the
// skip list itself).
func (s *SkipList) Bottom(img *mm.Memory, rep *recovery.Report, noun string) Chain {
	return newChain(img, rep, s.headCell(0), slNext0, noun)
}

// Recover implements Set: the hardened null-recovery walk of the list in
// a crash image. Only the bottom level is walked: it alone defines
// membership. The index levels carry plain (volatile) annotations, so a
// crash image may hold index links whose bottom-level counterparts never
// persisted — Release Persistency does not order them — and null
// recovery rebuilds the index from the bottom level.
func (s *SkipList) Recover(img *mm.Memory) *recovery.Report { return recovery.Walk(img, s) }

// Units implements recovery.Walker: the bottom level is one unit.
func (s *SkipList) Units() int { return 1 }

// WalkUnit implements recovery.Walker.
func (s *SkipList) WalkUnit(img *mm.Memory, rep *recovery.Report, _ int) {
	prev := uint64(0)
	c := s.Bottom(img, rep, "")
	for c.Next() {
		switch why := violation(c.Key, c.Val); {
		case why != "":
			rep.Quarantine(c.Node, why)
		case c.Height() == 0:
			rep.Quarantine(c.Node, "height 0")
		case c.Key <= prev:
			rep.Quarantine(c.Node, fmt.Sprintf("bottom-level order violated: %d after %d", c.Key, prev))
		default:
			prev = c.Key
			rep.Set.Nodes++
			if !c.Marked() {
				rep.Recovered(c.Key, c.Val)
			}
		}
	}
}
