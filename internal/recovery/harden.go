package recovery

import (
	"fmt"
	"slices"

	"lrp/internal/isa"
	"lrp/internal/mm"
)

// Report is the outcome of a hardened recovery walk. Rather than abort on
// the first structural violation, the Report* walkers quarantine the
// offending node and recover everything else they can reach — what a
// production recovery procedure must do when the image was left by a
// faulty NVM rather than an idealized one. Err gives the strict verdict:
// each walker checks in a fixed order, so the first quarantined violation
// is the one an aborting walk would have stopped at.
type Report struct {
	// Structure names the walked structure.
	Structure string
	// Set holds the recovered contents of a keyed structure (list,
	// hashmap, BST, skip list); Queue those of the MS queue. Exactly one
	// is non-nil.
	Set   *SetState
	Queue *QueueState
	// Quarantined lists the nodes excluded from the recovered contents,
	// with the violation that condemned each.
	Quarantined []Corruption
	// Abandoned counts walks (chains, subtrees) truncated at a node whose
	// links could not be trusted: an unknown suffix of the structure was
	// lost beyond them.
	Abandoned int
}

// Clean reports whether the walk recovered the full structure: nothing
// quarantined, nothing abandoned. Under SB/BB/LRP every crash image —
// torn lines included — must produce a clean report; that is the paper's
// consistency claim under the hardened fault model.
func (r *Report) Clean() bool {
	return len(r.Quarantined) == 0 && r.Abandoned == 0
}

// Err returns nil for a clean report, else the first quarantined
// violation (or a summary error when only truncation occurred).
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	if len(r.Quarantined) > 0 {
		return r.Quarantined[0]
	}
	return fmt.Errorf("recovery(%s): %d walk(s) abandoned", r.Structure, r.Abandoned)
}

func (r *Report) String() string {
	n := 0
	if r.Set != nil {
		n = r.Set.Nodes
	} else if r.Queue != nil {
		n = r.Queue.Nodes
	}
	return fmt.Sprintf("recovery(%s): %d nodes recovered, %d quarantined, %d walks abandoned",
		r.Structure, n, len(r.Quarantined), r.Abandoned)
}

func (r *Report) quarantine(node isa.Addr, reason string) {
	r.Quarantined = append(r.Quarantined, Corruption{r.Structure, node, reason})
}

// reportChain walks one sorted chain, quarantining instead of aborting.
// A node that fails the key/value convention (torn initialization) is
// excluded but the walk continues through its next pointer — junk targets
// are caught by the alignment and step-bound guards. A pointer that
// cannot be followed (misaligned, cycle) truncates the chain.
func reportChain(img *mm.Memory, rep *Report, headCell isa.Addr, lower uint64) *SetState {
	st := &SetState{Members: map[uint64]uint64{}}
	prev := lower
	ptr := img.Read(headCell)
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			rep.quarantine(headCell, "walk exceeded step bound (cycle?)")
			rep.Abandoned++
			return st
		}
		node := isa.Addr(clean(ptr))
		if node == 0 {
			return st
		}
		if !node.Aligned() {
			rep.quarantine(node, "misaligned node pointer")
			rep.Abandoned++
			return st
		}
		key := img.Read(node + 0)
		val := img.Read(node + 8)
		next := img.Read(node + 16)
		switch {
		case checkNode(rep.Structure, node, key, val) != nil:
			rep.quarantine(node, corruptReason(rep.Structure, node, key, val))
		case key <= prev:
			rep.quarantine(node, fmt.Sprintf("key order violated: %d after %d", key, prev))
		default:
			prev = key
			st.Nodes++
			if next&markBit == 0 {
				st.Members[key] = val
			}
		}
		ptr = next
	}
}

// corruptReason re-derives the checkNode failure string for a node known
// to violate the convention.
func corruptReason(structure string, node isa.Addr, key, val uint64) string {
	if err := checkNode(structure, node, key, val); err != nil {
		return err.(Corruption).Reason
	}
	return "unknown violation"
}

// ReportList walks a lock-free sorted linked list from head (the head
// pointer cell; layout [key, val, next]). It never fails, returning what
// was recoverable plus the quarantine set.
func ReportList(img *mm.Memory, head isa.Addr) *Report {
	rep := &Report{Structure: "linkedlist"}
	rep.Set = reportChain(img, rep, head, 0)
	return rep
}

// ReportHashMap walks a lock-free hash table: buckets is the bucket array
// base, nbuckets its length, and bucketOf must map a key to its bucket
// index (the table's hash). Corrupt buckets are quarantined individually;
// healthy buckets recover in full.
func ReportHashMap(img *mm.Memory, buckets isa.Addr, nbuckets uint64, bucketOf func(uint64) uint64) *Report {
	rep := &Report{Structure: "hashmap", Set: &SetState{Members: map[uint64]uint64{}}}
	for b := uint64(0); b < nbuckets; b++ {
		cell := buckets + isa.Addr(b*BucketStride)
		sub := reportChain(img, rep, cell, 0)
		var misplaced []uint64
		for k, v := range sub.Members { // maprange:ok — misplaced keys are sorted below; the merge is keyed
			if bucketOf(k) != b {
				misplaced = append(misplaced, k)
				continue
			}
			rep.Set.Members[k] = v
		}
		// Quarantine in ascending key order, which is chain order, so the
		// report does not depend on map iteration order.
		slices.Sort(misplaced)
		for _, k := range misplaced {
			rep.quarantine(cell, fmt.Sprintf("key %d found in bucket %d, hashes to %d", k, b, bucketOf(k)))
		}
		rep.Set.Nodes += sub.Nodes
	}
	return rep
}

// ReportBST walks a lock-free external BST from its root cell (layout
// [key, val, left, right]; leaves have zero children; sentinel is the
// sentinel key). A corrupt node prunes its subtree into the quarantine
// set; the rest of the tree recovers.
func ReportBST(img *mm.Memory, root isa.Addr, sentinel uint64) *Report {
	rep := &Report{Structure: "bstree", Set: &SetState{Members: map[uint64]uint64{}}}
	rootPtr := clean(img.Read(root))
	if rootPtr == 0 {
		return rep
	}
	steps := 0
	var walk func(node isa.Addr, lo, hi uint64)
	walk = func(node isa.Addr, lo, hi uint64) {
		steps++
		if steps > maxSteps {
			rep.quarantine(node, "walk exceeded step bound (cycle?)")
			rep.Abandoned++
			return
		}
		if !node.Aligned() {
			rep.quarantine(node, "misaligned node pointer")
			rep.Abandoned++
			return
		}
		key := img.Read(node + 0)
		left := clean(img.Read(node + 16))
		right := clean(img.Read(node + 24))
		if key == 0 {
			rep.quarantine(node, "reachable node with uninitialized key")
			rep.Abandoned++
			return
		}
		if key < lo || key > hi {
			rep.quarantine(node, fmt.Sprintf("key %d escapes route bounds [%d,%d]", key, lo, hi))
			rep.Abandoned++
			return
		}
		if left == 0 && right == 0 {
			rep.Set.Nodes++
			if key == sentinel {
				return
			}
			val := img.Read(node + 8)
			if err := checkNode("bstree", node, key, val); err != nil {
				rep.quarantine(node, corruptReason("bstree", node, key, val))
				return
			}
			rep.Set.Members[key] = val
			return
		}
		if left == 0 || right == 0 {
			rep.quarantine(node, "internal node with a missing child")
			rep.Abandoned++
			return
		}
		rep.Set.Nodes++
		walk(isa.Addr(left), lo, key-1)
		walk(isa.Addr(right), key, hi)
	}
	walk(isa.Addr(rootPtr), 1, sentinel)
	return rep
}

// ReportSkipList walks a lock-free skip list from its head tower (layout
// [key, val, height, next...]; maxHeight is the tower height). Only the
// bottom level is walked: it alone defines membership. The index levels
// carry plain (volatile) annotations, so a crash image may hold index
// links whose bottom-level counterparts never persisted — Release
// Persistency does not order them — and null recovery rebuilds the index
// from the bottom level. WalkSkipListIndex checks the index levels too,
// for images known to be complete.
func ReportSkipList(img *mm.Memory, head isa.Addr, maxHeight int) *Report {
	rep := &Report{Structure: "skiplist"}
	st := &SetState{Members: map[uint64]uint64{}}
	prev := uint64(0)
	ptr := img.Read(head)
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			rep.quarantine(head, "walk exceeded step bound (cycle?)")
			rep.Abandoned++
			break
		}
		node := isa.Addr(clean(ptr))
		if node == 0 {
			break
		}
		if !node.Aligned() {
			rep.quarantine(node, "misaligned node pointer")
			rep.Abandoned++
			break
		}
		key := img.Read(node + 0)
		val := img.Read(node + 8)
		height := img.Read(node + 16)
		next := img.Read(node + 24)
		switch {
		case checkNode("skiplist", node, key, val) != nil:
			rep.quarantine(node, corruptReason("skiplist", node, key, val))
		case height == 0:
			rep.quarantine(node, "height 0")
		case key <= prev:
			rep.quarantine(node, fmt.Sprintf("bottom-level order violated: %d after %d", key, prev))
		default:
			prev = key
			st.Nodes++
			if next&markBit == 0 {
				st.Members[key] = val
			}
		}
		ptr = next
	}
	rep.Set = st
	return rep
}

// ReportQueue walks a Michael–Scott queue from its head and tail cells
// (layout [val, next]; the head points at the dummy node). A corrupt
// node truncates the recovered value sequence there (a queue's order is
// its content, so nothing beyond an untrusted link can be kept).
func ReportQueue(img *mm.Memory, head, tail isa.Addr) *Report {
	rep := &Report{Structure: "queue", Queue: &QueueState{}}
	hp := clean(img.Read(head))
	tp := clean(img.Read(tail))
	if hp == 0 {
		if tp != 0 {
			rep.quarantine(head, "tail persisted before head")
		}
		return rep
	}
	ptr := hp
	sawTail := tp == 0
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			rep.quarantine(head, "walk exceeded step bound (cycle?)")
			rep.Abandoned++
			return rep
		}
		node := isa.Addr(ptr)
		if !node.Aligned() {
			rep.quarantine(node, "misaligned node pointer")
			rep.Abandoned++
			return rep
		}
		if ptr == tp {
			sawTail = true
		}
		next := clean(img.Read(node + 8))
		rep.Queue.Nodes++
		if next == 0 {
			break
		}
		if !isa.Addr(next).Aligned() {
			rep.quarantine(isa.Addr(next), "misaligned node pointer")
			rep.Abandoned++
			return rep
		}
		val := img.Read(isa.Addr(next) + 0)
		if val == 0 {
			rep.quarantine(isa.Addr(next), "reachable node with uninitialized value")
			rep.Abandoned++
			return rep
		}
		rep.Queue.Values = append(rep.Queue.Values, val)
		ptr = next
	}
	if !sawTail {
		rep.quarantine(tail, "tail points outside the reachable chain")
	}
	return rep
}
