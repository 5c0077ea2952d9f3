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
}

// NewSkipList anchors an empty skip list.
func NewSkipList(sys *memsys.System) *SkipList {
	return &SkipList{head: sys.StaticAlloc(MaxHeight)}
}

// Name implements Set.
func (s *SkipList) Name() string { return "skiplist" }

func (s *SkipList) headCell(level int) isa.Addr { return s.head + isa.Addr(8*level) }

// find locates key on every level: preds[i] is the pointer-cell address
// to update at level i, succs[i] the (clean) successor. Marked nodes are
// unlinked on the way. found reports a bottom-level unmarked match.
func (s *SkipList) find(c *memsys.Ctx, key uint64) (preds [MaxHeight]isa.Addr, succs [MaxHeight]uint64, found bool) {
retry:
	for {
		predCell := s.headCell(MaxHeight - 1)
		for level := MaxHeight - 1; level >= 0; level-- {
			if level != MaxHeight-1 {
				predCell -= 8 // drop one level within the same tower
			}
			curr := clearPtr(loadLevel(c, predCell, level))
			for curr != 0 {
				next := loadLevel(c, addr(curr)+slNext(level), level)
				for isMarked(next) {
					// Help unlink the deleted node at this level.
					if _, ok := c.CAS(predCell, curr, clearPtr(next), casOrder(level)); !ok {
						continue retry
					}
					curr = clearPtr(next)
					if curr == 0 {
						break
					}
					next = loadLevel(c, addr(curr)+slNext(level), level)
				}
				if curr == 0 {
					break
				}
				if c.Load(addr(curr)+slKey) >= key {
					break
				}
				predCell = addr(curr) + slNext(level)
				curr = clearPtr(next)
			}
			preds[level] = predCell
			succs[level] = curr
		}
		bottom := succs[0]
		found = bottom != 0 && c.Load(addr(bottom)+slKey) == key
		return preds, succs, found
	}
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
		// ordering).
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
				c.Store(n+slNext(i), succs[i])
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

// Contains implements Set.
func (s *SkipList) Contains(c *memsys.Ctx, key uint64) bool {
	predCell := s.headCell(MaxHeight - 1)
	var curr uint64
	for level := MaxHeight - 1; level >= 0; level-- {
		if level != MaxHeight-1 {
			predCell -= 8
		}
		curr = clearPtr(loadLevel(c, predCell, level))
		for curr != 0 {
			k := c.Load(addr(curr) + slKey)
			next := loadLevel(c, addr(curr)+slNext(level), level)
			if k < key {
				predCell = addr(curr) + slNext(level)
				curr = clearPtr(next)
				continue
			}
			if level == 0 && k == key {
				return !isMarked(next)
			}
			break
		}
	}
	return false
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
func (s *SkipList) Head() isa.Addr { return s.head }

// Level is a recovery cursor over one level of the list in a crash
// image; noun names the chain in its guard findings ("" for the skip
// list itself).
func (s *SkipList) Level(img *mm.Memory, rep *recovery.Report, level int, noun string) Chain {
	return newChain(img, rep, s.headCell(level), slNext(level), noun)
}

// Recover implements Set: the hardened null-recovery walk of the list in
// a crash image. Only the bottom level is walked: it alone defines
// membership. The index levels carry plain (volatile) annotations, so a
// crash image may hold index links whose bottom-level counterparts never
// persisted — Release Persistency does not order them — and null
// recovery rebuilds the index from the bottom level. WalkIndex checks
// the index levels too, for images known to be complete.
func (s *SkipList) Recover(img *mm.Memory) *recovery.Report {
	rep := recovery.NewSetReport(s.Name())
	prev := uint64(0)
	c := s.Level(img, rep, 0, "")
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
				rep.Set.Members[c.Key] = c.Val
			}
		}
	}
	return rep
}

// WalkIndex is the whole-structure check for images known to be
// complete (clean shutdown): Recover must be clean, then every index
// level must be a sorted subsequence of the bottom level (height bounds,
// bottom membership of live index nodes). It returns the first
// violation as a recovery.Corruption.
func (s *SkipList) WalkIndex(img *mm.Memory) (*recovery.SetState, error) {
	rep := s.Recover(img)
	if err := rep.Err(); err != nil {
		return nil, err
	}
	bottom := make(map[uint64]bool, rep.Set.Nodes)
	c := s.Level(img, rep, 0, "")
	for c.Next() {
		bottom[c.Key] = true
	}
	idx := &recovery.Report{Structure: s.Name()}
	for level := 1; level < MaxHeight && idx.Clean(); level++ {
		prev := uint64(0)
		c := s.Level(img, idx, level, "index ")
		for idx.Clean() && c.Next() {
			switch {
			case !bottom[c.Key] && !isMarked(img.Read(c.Node+slNext0)):
				// A live index node must exist on the bottom level. A
				// *marked* one may linger: index linking races with
				// deletion, and the loser is unlinked lazily by later
				// traversals — legitimate in the crash image too.
				idx.Quarantine(c.Node, fmt.Sprintf("level-%d node key %d not on the bottom level", level, c.Key))
			case c.Height() <= uint64(level):
				idx.Quarantine(c.Node, fmt.Sprintf("node of height %d reachable at level %d", c.Height(), level))
			case c.Key <= prev:
				idx.Quarantine(c.Node, fmt.Sprintf("level-%d order violated: %d after %d", level, c.Key, prev))
			default:
				prev = c.Key
			}
		}
	}
	if err := idx.Err(); err != nil {
		return nil, err
	}
	return rep.Set, nil
}
