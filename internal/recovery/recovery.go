// Package recovery implements null recovery (Izraelevitz & Scott) for the
// five log-free data structures: given only the durable NVM image left by
// a (simulated) crash, it walks each structure, validates its structural
// invariants, and rebuilds its logical contents.
//
// When the run enforced Release Persistency (SB, BB, LRP), the image is a
// consistent cut and every walk succeeds — that is the paper's
// correctness claim, and the crash sweeps exercise it at every crash
// boundary. Under ARP or NOP, a walk can encounter a node whose
// linking pointer persisted before its contents: a reachable node with a
// zero key or a value that fails the integrity convention. The walkers
// report those as corruption instead of crashing, which is exactly what a
// real recovery procedure would face.
package recovery

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/mm"
)

// DefaultVal is the value-integrity convention the workloads use: the
// value stored with key k is always 2k+1 (odd, nonzero). A reachable node
// violating it was linked before its initialization persisted.
func DefaultVal(key uint64) uint64 { return key*2 + 1 }

// maxSteps bounds every walk so a corrupted image with a pointer cycle
// terminates with an error instead of looping. It is a variable only so
// tests can exercise the bound without walking millions of steps.
var maxSteps = 1 << 22

// Corruption describes one structural violation found in a crash image.
type Corruption struct {
	Structure string
	Node      isa.Addr
	Reason    string
}

func (c Corruption) Error() string {
	return fmt.Sprintf("recovery(%s): node %v: %s", c.Structure, c.Node, c.Reason)
}

// SetState is the recovered logical content of a keyed structure.
type SetState struct {
	// Members maps present keys to their values.
	Members map[uint64]uint64
	// Nodes counts nodes visited (including logically deleted ones).
	Nodes int
}

const (
	ptrMask = ^uint64(3)
	markBit = 1
)

func clean(p uint64) uint64 { return p & ptrMask }

// checkNode validates the key/value convention for a reachable node.
func checkNode(structure string, node isa.Addr, key, val uint64) error {
	if key == 0 {
		return Corruption{structure, node, "reachable node with uninitialized key"}
	}
	if val != DefaultVal(key) {
		return Corruption{structure, node,
			fmt.Sprintf("value %d fails integrity convention for key %d (want %d)", val, key, DefaultVal(key))}
	}
	return nil
}

// BucketStride is the byte distance between bucket head cells (they are
// padded to a line each; see lfds.HashMap).
const BucketStride = isa.LineSize

// WalkSkipListIndex is the whole-structure check for images known to be
// complete (clean shutdown): ReportSkipList validates the bottom level,
// then every index level must be a sorted subsequence of it (height
// bounds, bottom membership of live index nodes). Crash images get
// ReportSkipList alone, since their index levels may legitimately run
// ahead of the bottom level.
func WalkSkipListIndex(img *mm.Memory, head isa.Addr, maxHeight int) (*SetState, error) {
	rep := ReportSkipList(img, head, maxHeight)
	if err := rep.Err(); err != nil {
		return nil, err
	}
	// The bottom level just walked clean, so collecting its keys needs
	// no guards.
	bottomKeys := make(map[uint64]bool, rep.Set.Nodes)
	for ptr := clean(img.Read(head)); ptr != 0; ptr = clean(img.Read(isa.Addr(ptr) + 24)) {
		bottomKeys[img.Read(isa.Addr(ptr))] = true
	}
	// Index levels must be sorted subsequences of the bottom level.
	var prev uint64
	var ptr uint64
	for level := 1; level < maxHeight; level++ {
		prev = 0
		ptr = img.Read(head + isa.Addr(level*8))
		for steps := 0; ; steps++ {
			if steps > maxSteps {
				return nil, Corruption{"skiplist", head, "index walk exceeded step bound"}
			}
			node := isa.Addr(clean(ptr))
			if node == 0 {
				break
			}
			if !node.Aligned() {
				return nil, Corruption{"skiplist", node, "misaligned node pointer"}
			}
			key := img.Read(node + 0)
			height := img.Read(node + 16)
			deleted := img.Read(node+24)&markBit != 0
			if !bottomKeys[key] && !deleted {
				// A live index node must exist on the bottom level. A
				// *marked* one may linger: index linking races with
				// deletion, and the loser is unlinked lazily by later
				// traversals — legitimate in the crash image too.
				return nil, Corruption{"skiplist", node,
					fmt.Sprintf("level-%d node key %d not on the bottom level", level, key)}
			}
			if height <= uint64(level) {
				return nil, Corruption{"skiplist", node,
					fmt.Sprintf("node of height %d reachable at level %d", height, level)}
			}
			if key <= prev {
				return nil, Corruption{"skiplist", node,
					fmt.Sprintf("level-%d order violated: %d after %d", level, key, prev)}
			}
			prev = key
			ptr = img.Read(node + isa.Addr(24+level*8))
		}
	}
	return rep.Set, nil
}

// QueueState is the recovered logical content of the MS queue.
type QueueState struct {
	// Values are the queued values from head to tail.
	Values []uint64
	Nodes  int
}
