// Package lfds implements the five log-free (nonblocking) data structures
// the paper evaluates (§6.1), written against the simulated machine's
// memory interface: Harris's lock-free linked list, Michael's lock-free
// hash table, a lock-free external binary search tree in the style of
// Natarajan & Mittal, a lock-free skip list, and the Michael–Scott queue.
//
// All structures follow the paper's annotation discipline: pointer loads
// that establish synchronizes-with edges are acquires; the single CAS
// that makes an operation visible (linking a node, marking a node for
// deletion) is a release; node-initialization stores are plain. With
// those annotations, Release Persistency guarantees that a crash leaves a
// consistent cut in NVM, so the structures recover with no logging at all
// (null recovery). Each structure's Recover is that walk, written next to
// the node layout it reads: it rebuilds the contents from a crash image
// into a recovery.Report, quarantining what it cannot trust. The chain
// walks (list, hash-map buckets, skip-list levels — and the kv store's
// indexes, through Chain) share one guarded cursor.
//
// Every operation has a traversal phase and a critical phase (the split
// NVTraverse draws). The traversal phase only locates the operation's
// position; its loads are acquires or plain reads, and its only writes
// are the helping CASes that unlink marked nodes. The traversal loops of
// the update paths (the list and bucket search, the BST seek, the
// skip-list find) and the skip list's Contains are written as
// memsys.Walkers: state machines whose next op is a pure function of the
// last op's value, so the machine's kernel can perform them for a parked
// thread without switching to it (memsys.Ctx.Walk). A walker's state
// lives in per-thread storage the structure owns. The critical phase
// (allocating and initializing a node, the linearizing release CAS, the
// deletion's marks) stays plain Go code over Ctx operations. So do the
// lists' read-only lookups (contains, findNode) and the skip list's
// Scan, which calls back into its caller at every node.
//
// Memory management: nodes come from the owning thread's arena and are
// never reused (no ABA); deleted nodes are unlinked but not reclaimed,
// matching the paper's measurement windows, which run without a
// reclaimer.
package lfds

import (
	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// Set is the common interface of the keyed structures (list, hash map,
// BST, skip list). Keys must be nonzero; zero is the reserved "absent"
// sentinel, which the recovery walkers rely on to detect uninitialized
// nodes in a crash image.
type Set interface {
	// Name identifies the structure ("linkedlist", "hashmap", ...).
	Name() string
	// Insert adds key with val; it reports false if key was present.
	Insert(c *memsys.Ctx, key, val uint64) bool
	// Delete removes key; it reports false if key was absent.
	Delete(c *memsys.Ctx, key uint64) bool
	// Contains reports whether key is present.
	Contains(c *memsys.Ctx, key uint64) bool
	// Recover performs the hardened null-recovery walk of the structure
	// in a crash image: corrupt nodes are quarantined into the report,
	// never panicking. Its Err is the strict verdict. The report is
	// valid until the next Recover over the same image (recovery.Walk).
	Recover(img *mm.Memory) *recovery.Report
}

// Pointer mark bits. Node addresses are cache-line aligned, so the low
// bits of a stored pointer are free for marks.
const (
	// markBit flags a logically deleted node (lists, skip list) when set
	// on that node's next pointer.
	markBit = 1
	// flagBit and tagBit are the BST's edge bits (Natarajan–Mittal):
	// flag announces the leaf under this edge is being deleted; tag
	// freezes the sibling edge during cleanup.
	flagBit = 1
	tagBit  = 2
	ptrMask = ^uint64(3)
)

func isMarked(p uint64) bool   { return p&markBit != 0 }
func withMark(p uint64) uint64 { return p | markBit }
func clearPtr(p uint64) uint64 { return p & ptrMask }

func addr(p uint64) isa.Addr { return isa.Addr(clearPtr(p)) }

// traverse runs a traversal walker on c's thread. It is a variable only
// so the differential test can run the loop forms the walkers replaced.
var traverse = (*memsys.Ctx).Walk

// newWalks is a structure's per-thread walker storage on sys: one walker
// per core, indexed by thread id.
func newWalks[W any](sys *memsys.System) []W { return make([]W, sys.Config().Cores) }
